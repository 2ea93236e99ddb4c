package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// dist is one metric's values over a set of runs.
type dist struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is the interquartile range as a share of the median.
	Spread float64 `json:"spread"`
}

func (d *dist) add(v float64) {
	d.Values = append(d.Values, v)
	d.Q1, d.Median, d.Q3 = quartiles(d.Values)
	d.Spread = 0
	if d.Median != 0 {
		d.Spread = (d.Q3 - d.Q1) / d.Median
	}
}

// workloadSummary gathers one workload's runs: end-to-end metrics over the
// untraced runs, per-layer metrics and budget from the traced run(s).
type workloadSummary struct {
	Runs      int              `json:"runs"`
	Invalid   int              `json:"invalid"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Wrong     int              `json:"wrong"`
	Metrics   map[string]*dist `json:"metrics"`
	Layers    map[string]*dist `json:"layers"`
	Budget    []budgetRow      `json:"budget,omitempty"`
	Warnings  []string         `json:"warnings,omitempty"`
}

type summary struct {
	Header    header                      `json:"header"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

// summarizeDir reads every run result in dir, writes dir/summary.json and
// prints medians, quartiles and the latency budget. It fails when any run
// failed a request or returned a wrong answer.
func summarizeDir(w io.Writer, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace[01].json"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no run results in %s", dir)
	}
	sum := summary{Workloads: map[string]*workloadSummary{}}
	for _, f := range files {
		var res result
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &res); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if sum.Header.Date == "" || res.Header.Date < sum.Header.Date {
			sum.Header = res.Header
		}
		ws := sum.Workloads[res.Workload]
		if ws == nil {
			ws = &workloadSummary{Metrics: map[string]*dist{}, Layers: map[string]*dist{}}
			sum.Workloads[res.Workload] = ws
		}
		ws.Attempted += res.Attempted
		ws.Failed += res.Failed
		ws.Wrong += res.Wrong
		for _, warn := range res.Warnings {
			ws.Warnings = append(ws.Warnings, fmt.Sprintf("seed %d: %s", res.Seed, warn))
		}
		into := ws.Metrics
		if res.Trace {
			into = ws.Layers
			ws.Budget = res.Budget
		} else {
			ws.Runs++
			if !res.Valid {
				ws.Invalid++
			}
		}
		for name, m := range res.Metrics {
			d := into[name]
			if d == nil {
				d = &dist{Unit: m.Unit}
				into[name] = d
			}
			d.add(m.Value)
		}
	}
	sum.Header.Seed = 0
	if err := writeJSON(filepath.Join(dir, "summary.json"), sum); err != nil {
		return err
	}
	printSummary(w, &sum)
	var bad []string
	for _, name := range sortedKeys(sum.Workloads) {
		if ws := sum.Workloads[name]; ws.Failed > 0 || ws.Wrong > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d failed, %d wrong", name, ws.Failed, ws.Wrong))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("errors: %s", strings.Join(bad, "; "))
	}
	return nil
}

func printSummary(w io.Writer, sum *summary) {
	h := sum.Header
	fmt.Fprintf(w, "commit %s, %s %s/%s, %s, nproc %d, GOMAXPROCS %d, %s\n\n",
		h.Commit, h.GoVersion, h.GOOS, h.GOARCH, h.CPU, h.NProc, h.GOMAXPROCS, h.Date)
	fmt.Fprintln(w, "| workload | metric | unit | runs | invalid | median | q1 | q3 | spread |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, name := range sortedKeys(sum.Workloads) {
		ws := sum.Workloads[name]
		for _, def := range gated() {
			if d := ws.Metrics[def.name]; d != nil && d.Median != 0 {
				fmt.Fprintf(w, "| %s | %s | %s | %d | %d | %.4g | %.4g | %.4g | %.1f%% |\n",
					name, def.name, d.Unit, len(d.Values), ws.Invalid, d.Median, d.Q1, d.Q3, 100*d.Spread)
			}
		}
	}
	fmt.Fprintln(w)
	const shown = 3 // warnings printed per workload; summary.json has all
	for _, name := range sortedKeys(sum.Workloads) {
		ws := sum.Workloads[name]
		for i, warn := range ws.Warnings {
			if i == shown {
				fmt.Fprintf(w, "WARNING %s: %d more in summary.json\n", name, len(ws.Warnings)-shown)
				break
			}
			fmt.Fprintf(w, "WARNING %s %s\n", name, warn)
		}
	}
	fmt.Fprintln(w, "\nLatency budget (traced run; mean self time per module over the requests")
	fmt.Fprintln(w, "between the 40th and 60th percentile of end-to-end time):")
	fmt.Fprintln(w)
	budgets := map[string][]budgetRow{}
	for name, ws := range sum.Workloads {
		budgets[name] = ws.Budget
	}
	printBudget(w, sortedKeys(sum.Workloads), budgets)
	fmt.Fprintln(w, "\nPer-layer metrics (traced run):")
	fmt.Fprintln(w)
	names := sortedKeys(sum.Workloads)
	fmt.Fprintf(w, "| metric | unit | %s |\n|---|---|%s\n", strings.Join(names, " | "), strings.Repeat("---|", len(names)))
	for _, def := range perLayer {
		fmt.Fprintf(w, "| %s | %s |", def.name, def.unit)
		for _, name := range names {
			if d := sum.Workloads[name].Layers[def.name]; d != nil {
				fmt.Fprintf(w, " %.4g |", d.Median)
			} else {
				fmt.Fprint(w, " - |")
			}
		}
		fmt.Fprintln(w)
	}
}

// gated are the metrics compare mode judges: the end-to-end metrics, then
// the serving metrics.
func gated() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), serving...)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// benchmarkFile is the part of BENCHMARK.json compare mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict compares B against A for one metric: worse or better when the
// medians differ by more than the bound, same when they do not, and
// unresolved when either side's spread is wider than the bound, unless
// every run of B beats every run of A.
func verdict(a, b *dist, bound float64, better string) string {
	if a == nil || b == nil || a.Median == 0 {
		return "unresolved"
	}
	change := (b.Median - a.Median) / a.Median
	if better == "higher" {
		change = -change
	}
	if max(a.Spread, b.Spread) > bound {
		if allBetter(a.Values, b.Values, better) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "lower" && y >= x) || (better == "higher" && y <= x) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// compareSummaries prints, for every end-to-end and serving metric x
// workload pair, each side's median and quartiles over its untraced runs and
// a verdict against the metric's bound (BENCHMARK.json's for the end-to-end
// metrics, the serving list's for the others), then the traced runs'
// per-layer medians side by side. It fails if any pair is worse.
func compareSummaries(w io.Writer, pathA, pathB, boundsPath string) error {
	var a, b summary
	var bench benchmarkFile
	for _, x := range []struct {
		path string
		v    any
	}{{pathA, &a}, {pathB, &b}, {boundsPath, &bench}} {
		if err := readJSON(x.path, x.v); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "A: %s (%s)\nB: %s (%s)\n\n", pathA, a.Header.Commit, pathB, b.Header.Commit)
	fmt.Fprintln(w, "| workload | metric | bound | A median [q1, q3] | B median [q1, q3] | change | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	names := map[string]bool{}
	for n := range a.Workloads {
		names[n] = true
	}
	for n := range b.Workloads {
		names[n] = true
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range bench.PerLayer {
		better[m.Name] = m.Better
	}
	for _, m := range serving {
		bounds[m.name] = m.bound
	}
	worse := 0
	for _, name := range sortedKeys(names) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, m := range gated() {
			var da, db *dist
			if wa != nil {
				da = wa.Metrics[m.name]
			}
			if wb != nil {
				db = wb.Metrics[m.name]
			}
			if (da == nil || da.Median == 0) && (db == nil || db.Median == 0) {
				continue
			}
			v := verdict(da, db, bounds[m.name], better[m.name])
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "| %s | %s | %g%% | %s | %s | %s | %s |\n",
				name, m.name, 100*bounds[m.name], fmtDist(da), fmtDist(db), fmtChange(da, db), v)
		}
	}
	fmt.Fprintln(w, "\n| workload | per-layer metric | unit | A | B | change |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, name := range sortedKeys(names) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, m := range bench.PerLayer {
			var da, db *dist
			if wa != nil {
				da = wa.Layers[m.Name]
			}
			if wb != nil {
				db = wb.Layers[m.Name]
			}
			if (da == nil || da.Median == 0) && (db == nil || db.Median == 0) {
				continue
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n",
				name, m.Name, m.Unit, fmtMedian(da), fmtMedian(db), fmtChange(da, db))
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric x workload pairs are worse than their bound", worse)
	}
	return nil
}

func fmtDist(d *dist) string {
	if d == nil {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g]", d.Median, d.Q1, d.Q3)
}

func fmtMedian(d *dist) string {
	if d == nil {
		return "-"
	}
	return fmt.Sprintf("%.4g", d.Median)
}

func fmtChange(a, b *dist) string {
	if a == nil || b == nil || a.Median == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(b.Median/a.Median-1))
}
