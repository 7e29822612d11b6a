package main

import (
	"fmt"
	"strconv"
	"time"

	"tiresias"
)

// detection identifies one anomaly independently of how it was
// delivered: stream, node key and unit start.
func detection(stream string, a tiresias.Anomaly) string {
	return stream + "\x00" + string(a.Key) + "\x00" + strconv.FormatInt(a.Time.UnixNano(), 10)
}

// streamRecords returns, per stream, the records the server accepted:
// the whole history prefix and every accepted measured body, in order.
func streamRecords(ds *dataset, l *loader) [][]tiresias.Record {
	out := make([][]tiresias.Record, ds.w.streams)
	for _, b := range ds.history {
		out[b.stream] = append(out[b.stream], b.recs...)
	}
	for i, b := range ds.measured[:l.sent] {
		if !l.refused[i] {
			out[b.stream] = append(out[b.stream], b.recs...)
		}
	}
	return out
}

// reference feeds the accepted records through an in-process
// synchronous Manager with the server's detector options and returns
// its anomalies per stream.
func reference(ds *dataset, l *loader) ([][]tiresias.Anomaly, error) {
	m, err := tiresias.NewManager(tiresias.WithDetectorOptions(ds.w.detectorOptions()...))
	if err != nil {
		return nil, err
	}
	out := make([][]tiresias.Anomaly, ds.w.streams)
	for s, recs := range streamRecords(ds, l) {
		anoms, n, err := m.FeedBatch(streamName(s), recs)
		if err != nil {
			return nil, fmt.Errorf("reference stream %d: %w", s, err)
		}
		if n != len(recs) {
			return nil, fmt.Errorf("reference stream %d applied %d of %d records", s, n, len(recs))
		}
		out[s] = anoms
	}
	return out, nil
}

// compare checks that the watch delivered exactly the reference's
// multiset of detections and returns a reason when it did not.
func compare(ref [][]tiresias.Anomaly, got []tiresias.AnomalyEntry) string {
	want := map[string]int{}
	n := 0
	for s, anoms := range ref {
		for _, a := range anoms {
			want[detection(streamName(s), a)]++
			n++
		}
	}
	for _, e := range got {
		k := detection(e.Stream, e.Anomaly)
		if want[k] == 0 {
			return fmt.Sprintf("watch delivered an anomaly the reference does not have: stream %s key %s unit %s",
				e.Stream, e.Key, e.Time.Format(time.RFC3339))
		}
		want[k]--
	}
	if len(got) != n {
		return fmt.Sprintf("watch delivered %d anomalies, the reference found %d", len(got), n)
	}
	return ""
}
