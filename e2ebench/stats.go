package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	mx, my := mean(xs), mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// chunkMin is the fewest samples one chunk of tailQuantile holds, so
// that at least ten lie beyond a chunk's p95.
const chunkMin = 200

// tailQuantile is a high quantile that one burst cannot move: the
// samples, in the order they were taken, are cut into consecutive
// chunks of at least chunkMin, and the median of the chunks'
// q-quantiles is returned. With fewer than 2·chunkMin samples it is
// the plain quantile.
func tailQuantile(xs []float64, q float64) float64 {
	k := max(len(xs)/chunkMin, 1)
	per := make([]float64, k)
	for i := range per {
		per[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return quantile(per, 0.5)
}
