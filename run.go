package tiresias

import (
	"context"
	"errors"
	"io"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/shhh"
	"tiresias/internal/stream"
)

// RunResult summarizes a Run.
type RunResult struct {
	// Anomalies aggregates all detections in time order — only when
	// no sink is registered (with sinks, anomalies stream out and
	// this stays nil so memory is bounded).
	Anomalies []Anomaly
	// AnomalyCount is the total number of detections, regardless of
	// sink configuration.
	AnomalyCount int
	// Units is the number of timeunits processed after warmup.
	Units int
	// Timings accumulates engine stage costs.
	Timings StageTimings
	// HeavyHitterCount is the SHHH set size after the last unit.
	HeavyHitterCount int
}

// ctxCheckEvery bounds how many records may be ingested between two
// context checks, so cancellation is prompt even on dense streams.
const ctxCheckEvery = 256

// Run drains a record source incrementally: records are windowed into
// timeunits on the fly, the first windowLen completed units warm the
// detector up, and every following unit is screened for anomalies the
// moment it completes — peak memory is O(windowLen) timeunits, never
// O(stream). When the source ends, the final partial unit is flushed
// and processed.
//
// Run honors ctx: on cancellation it stops promptly and returns the
// partial RunResult alongside the context's error. If the instance is
// already warm (a previous Run or Warmup), the warmup phase is skipped
// and every completed unit is screened, so a stream can be resumed
// across several Run calls: the resumed windowing is anchored where
// the previous run's clock left off, records predating it are
// rejected as out-of-order, and any quiet gap is filled with empty
// units so timestamps and seasonal phase stay honest. Gap filling is
// bounded by WithMaxGap; a record past the bound aborts the run with
// a descriptive error.
//
// Internally Run is flat end to end: record paths intern straight to
// dense node IDs in the detector's hierarchy, completed timeunits are
// pooled DenseUnits, and the engine consumes them in place — the warm
// steady state allocates nothing per record.
func (t *Tiresias) Run(ctx context.Context, src Source) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var w *stream.Windower
	var err error
	if t.warm {
		next := t.start.Add(time.Duration(t.warmLen+t.instance) * t.opts.delta)
		w, err = stream.NewWindowerAt(t.opts.delta, next)
	} else {
		w, err = stream.NewWindower(t.opts.delta)
	}
	if err != nil {
		return nil, err
	}
	w.SetMaxGap(t.opts.maxGap)
	w.BindTree(t.tree)
	res := &RunResult{}
	var warmBuf []shhh.Unit
	var first startClock
	sinceCheck := 0
	for {
		if sinceCheck == 0 {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		sinceCheck = (sinceCheck + 1) % ctxCheckEvery
		r, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, err
		}
		done, err := w.ObserveDense(r)
		if err != nil {
			return res, err
		}
		first.observe(w)
		for _, u := range done {
			if err := t.runUnit(u, &warmBuf, &first, res); err != nil {
				return res, err
			}
		}
	}
	if !first.seen {
		return nil, errors.New("tiresias: empty input stream")
	}
	// Flush the trailing partial unit so no ingested record is lost.
	if err := t.runUnit(w.FlushDense(), &warmBuf, &first, res); err != nil {
		return res, err
	}
	// A stream shorter than the window still warms the detector with
	// whatever history it carried (reduced forecast quality).
	if !t.warm {
		if err := t.warmup(warmBuf, first.at); err != nil {
			return res, err
		}
	}
	return res, nil
}

// startClock latches the start time of the first observed timeunit.
type startClock struct {
	at   time.Time
	seen bool
}

func (c *startClock) observe(w *stream.Windower) {
	if !c.seen {
		c.at = w.Start()
		c.seen = true
	}
}

// runUnit routes one completed dense timeunit through ingestUnitDense
// and accumulates the screened result.
func (t *Tiresias) runUnit(u *algo.DenseUnit, warmBuf *[]shhh.Unit, first *startClock, res *RunResult) error {
	sr, err := t.ingestUnitDense(u, warmBuf, first.at)
	if err != nil || sr == nil {
		return err
	}
	res.AnomalyCount += len(sr.Anomalies)
	if len(t.opts.sinks) == 0 {
		res.Anomalies = append(res.Anomalies, sr.Anomalies...)
	}
	res.Units++
	res.Timings.Add(sr.State.Timings)
	res.HeavyHitterCount = len(sr.State.HeavyHitters)
	return nil
}
