package report

import (
	"net/url"
	"strings"
	"testing"
	"time"

	"tiresias/internal/detect"
	"tiresias/internal/store"
)

func TestDashboardRendersAnomalies(t *testing.T) {
	entries := []store.Entry{
		{Seq: 2, Stream: "ccd", Anomaly: detect.Anomaly{Key: key("vho1", "io2"), Depth: 2, Instance: 12, Actual: 42, Forecast: 4,
			Time: time.Date(2010, 9, 14, 10, 0, 0, 0, time.UTC)}},
		{Seq: 1, Stream: "scd", Anomaly: detect.Anomaly{Key: key("vho2"), Depth: 1, Instance: 20, Actual: 15, Forecast: 10}},
	}
	var b strings.Builder
	if err := WriteDashboard(&b, entries, 7, url.Values{"under": {"vho<1>"}}); err != nil {
		t.Fatal(err)
	}
	html := b.String()
	for _, want := range []string{
		"<th>Stream</th>", "<td>ccd</td>", "<td>scd</td>",
		"vho1/io2", "10.5x", "2010-09-14T10:00:00Z", "depth 1: 1", "depth 2: 1",
		"7 anomalies retained; showing 2",
		`value="vho&lt;1&gt;"`, // the echoed query is escaped
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, html)
		}
	}
	// Rows keep the caller's order.
	if strings.Index(html, "<td>ccd</td>") > strings.Index(html, "<td>scd</td>") {
		t.Fatal("rows reordered")
	}
}
