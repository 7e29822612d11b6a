package report

import (
	"html/template"
	"io"
	"net/url"
	"sort"
	"time"

	"tiresias/internal/store"
)

// dashboardTmpl renders the operator-facing web report (Fig. 3(f)'s
// "Web Report" pane): recent anomalies, a per-depth summary, and the
// query form. It is deliberately dependency-free server-rendered HTML.
var dashboardTmpl = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Tiresias — anomaly report</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }
table { border-collapse: collapse; margin-top: 1rem; }
th, td { border: 1px solid #ccc; padding: 0.3rem 0.7rem; text-align: left; }
th { background: #f3f3f3; }
.score-high { color: #b00; font-weight: bold; }
form { margin-top: 1rem; }
.summary { color: #555; }
</style>
</head>
<body>
<h1>Tiresias anomaly report</h1>
<p class="summary">{{.Retained}} anomalies retained; showing {{len .Rows}}, newest first.
Depth histogram: {{range .Depths}}[depth {{.Depth}}: {{.Count}}] {{end}}</p>
<form method="get" action="/">
  stream <input name="stream" value="{{.Form.Get "stream"}}" size="8">
  subtree <input name="under" value="{{.Form.Get "under"}}" placeholder="vho1/io2">
  from <input name="from" value="{{.Form.Get "from"}}" placeholder="RFC 3339">
  to <input name="to" value="{{.Form.Get "to"}}" placeholder="RFC 3339">
  limit <input name="limit" value="{{.Form.Get "limit"}}" size="4">
  <button>query</button>
</form>
<table>
<tr><th>Stream</th><th>Instance</th><th>Time</th><th>Location</th><th>Depth</th><th>Actual</th><th>Forecast</th><th>Ratio</th></tr>
{{range .Rows}}
<tr>
  <td>{{.Stream}}</td>
  <td>{{.Instance}}</td>
  <td>{{.TimeStr}}</td>
  <td>{{.Location}}</td>
  <td>{{.Depth}}</td>
  <td>{{printf "%.1f" .Actual}}</td>
  <td>{{printf "%.1f" .Forecast}}</td>
  <td class="{{if gt .Ratio 5.0}}score-high{{end}}">{{printf "%.1fx" .Ratio}}</td>
</tr>
{{end}}
</table>
</body>
</html>`))

type dashboardRow struct {
	Stream   string
	Instance int
	TimeStr  string
	Location string
	Depth    int
	Actual   float64
	Forecast float64
	Ratio    float64
}

type depthCount struct {
	Depth, Count int
}

type dashboardData struct {
	Retained int
	Form     url.Values
	Depths   []depthCount
	Rows     []dashboardRow
}

// WriteDashboard renders the HTML report of the given index entries,
// in the order given. retained is the index occupancy shown in the
// summary line, and form is the query echoed back into the form
// fields (stream, under, from, to, limit).
func WriteDashboard(w io.Writer, entries []store.Entry, retained int, form url.Values) error {
	data := dashboardData{Retained: retained, Form: form}
	depths := make(map[int]int)
	for _, e := range entries {
		depths[e.Depth]++
		data.Rows = append(data.Rows, toRow(e))
	}
	for d, c := range depths {
		data.Depths = append(data.Depths, depthCount{Depth: d, Count: c})
	}
	sort.Slice(data.Depths, func(i, j int) bool { return data.Depths[i].Depth < data.Depths[j].Depth })
	return dashboardTmpl.Execute(w, data)
}

func toRow(e store.Entry) dashboardRow {
	ts := ""
	if !e.Time.IsZero() {
		ts = e.Time.Format(time.RFC3339)
	}
	return dashboardRow{
		Stream:   e.Stream,
		Instance: e.Instance,
		TimeStr:  ts,
		Location: e.Key.String(),
		Depth:    e.Depth,
		Actual:   e.Actual,
		Forecast: e.Forecast,
		Ratio:    e.Score(),
	}
}
