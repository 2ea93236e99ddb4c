package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// spanLayers derives the span-based per-layer metrics into m.
func spanLayers(spans []span, m map[string]float64) {
	self := selfTimes(spans)
	kids := map[uint64][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var client, router, hop, query, batch, write, snap, refresh, local []float64
	for _, s := range spans {
		switch s.Module + "/" + s.Op {
		case "client/read":
			client = append(client, us(self[s.ID]))
		case "router/read", "router/write":
			router = append(router, us(self[s.ID]))
		case "router/hop":
			hop = append(hop, us(self[s.ID]))
		case "server/read":
			query = append(query, us(s.dur()))
		case "server/batch":
			batch = append(batch, us(s.dur()))
		case "server/write":
			write = append(write, ms(s.dur()))
		case "server/snapshot":
			snap = append(snap, ms(s.dur()))
		case "replica/refresh":
			refresh = append(refresh, ms(s.dur()))
			// The replica's own share: the refresh minus the builder's
			// snapshot handler it waited on.
			own := s.dur()
			for _, h := range kids[s.ID] {
				for _, srv := range kids[h.ID] {
					own -= srv.dur()
				}
			}
			local = append(local, ms(own))
		}
	}
	p := func(v []float64, q float64) float64 { return percentile(sorted(v), q) }
	m["client.self_us_p50"] = p(client, 50)
	m["router.self_us_p50"], m["router.self_us_p99"] = p(router, 50), p(router, 99)
	m["router.hop_us_p50"] = p(hop, 50)
	m["server.query_us_p50"], m["server.query_us_p99"] = p(query, 50), p(query, 99)
	m["server.batch_us_p50"] = p(batch, 50)
	m["server.write_ms_p50"], m["server.write_ms_p90"] = p(write, 50), p(write, 90)
	m["server.snapshot_ms_p50"] = p(snap, 50)
	m["replica.refresh_ms_p50"], m["replica.refresh_ms_p90"] = p(refresh, 50), p(refresh, 90)
	m["replica.local_ms_p50"] = p(local, 50)
	if len(write) > 0 {
		m["server.write_other_ms_p50"] = m["server.write_ms_p50"] - m["core.apply_ms_p50"] -
			m["wal.commit_us_p50"]/1e3 - m["store.serialize_ms_p50"] - m["store.manifest_ms_p50"]
	}
}

// budgetColumns are the latency budget's modules. gen is the root span's
// self time: the generator's own work around the client call, and for an
// open-loop request that was already overdue, its wait behind the previous
// one (see openLoop); core, store and wal are carved out of
// the server and replica self times by the layer replay's medians, since
// no span runs inside the program.
var budgetColumns = []string{"gen", "client", "router", "server", "replica", "core", "store", "wal"}

// budgetRow is one request type's latency budget in microseconds. Self
// holds each module's mean self time over the requests whose end-to-end time
// lies between the 40th and 60th percentile: the budget of a median
// request. Medians of self times would not add up, since each module's
// slow requests are different requests; means over one band of requests do.
type budgetRow struct {
	Op    string             `json:"op"`
	Count int                `json:"count"`
	E2E   float64            `json:"e2e_us"`
	Self  map[string]float64 `json:"self_us"`
	Sum   float64            `json:"sum_us"`
}

type cost struct {
	col string
	ns  float64
}

// replayCosts is what the layer replay says a server or replica span spends
// inside core, store and wal, by module/op/node.
func replayCosts(m map[string]float64) map[string][]cost {
	var q []float64
	for _, k := range []string{"quadrant", "global", "dynamic"} {
		if v := m["core.query_ns_p50."+k]; v > 0 {
			q = append(q, v)
		}
	}
	query := 0.0
	for _, v := range q {
		query += v / float64(len(q))
	}
	return map[string][]cost{
		"server/read/builder":     {{"core", query}},
		"server/read/replica":     {{"store", m["store.query_ns_p50"]}},
		"server/batch/builder":    {{"core", query * batchSize}},
		"server/write/builder":    {{"core", m["core.apply_ms_p50"] * 1e6}, {"wal", m["wal.commit_us_p50"] * 1e3}, {"store", (m["store.serialize_ms_p50"] + m["store.manifest_ms_p50"]) * 1e6}},
		"server/snapshot/builder": {{"store", (m["store.serialize_ms_p50"] + m["store.delta_ms_p50"]) * 1e6}},
		"replica/refresh/":        {{"store", (m["store.apply_delta_ms_p50"] + m["store.open_mmap_ms_p50"]) * 1e6}},
	}
}

// budget splits every traced request's end-to-end time into module self
// times and reports, per request type, the budget of a median request.
func budget(spans []span, layer map[string]float64) []budgetRow {
	self := selfTimes(spans)
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	costs := replayCosts(layer)
	cols := map[uint64]map[string]float64{}
	for _, s := range spans {
		root := rootOf(s)
		if root.Module != "op" {
			continue
		}
		c := cols[root.ID]
		if c == nil {
			c = map[string]float64{}
			cols[root.ID] = c
		}
		own := float64(self[s.ID])
		col := s.Module
		if col == "op" {
			col = "gen"
		}
		// The replay ran apart from the load, so its medians can exceed this
		// span's self time; they are then scaled down together, keeping
		// their proportions.
		carve := costs[s.Module+"/"+s.Op+"/"+s.Node]
		total := 0.0
		for _, k := range carve {
			total += k.ns
		}
		scale := 1.0
		if total > own {
			scale = own / total
		}
		for _, k := range carve {
			c[k.col] += k.ns * scale
		}
		c[col] += max(own-total*scale, 0)
	}
	byOp := map[string][]uint64{}
	for id := range cols {
		op := byID[id].Op
		byOp[op] = append(byOp[op], id)
	}
	var rows []budgetRow
	for op, ids := range byOp {
		sort.Slice(ids, func(i, j int) bool { return byID[ids[i]].dur() < byID[ids[j]].dur() })
		row := budgetRow{Op: op, Count: len(ids), Self: map[string]float64{}}
		row.E2E = float64(byID[ids[(len(ids)-1)/2]].dur()) / 1e3
		band := ids[len(ids)*2/5 : max(len(ids)*3/5, len(ids)*2/5+1)]
		for _, col := range budgetColumns {
			for _, id := range band {
				row.Self[col] += cols[id][col] / 1e3 / float64(len(band))
			}
			row.Sum += row.Self[col]
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Op < rows[j].Op })
	return rows
}

// printBudget writes the budget rows of the given workloads as one
// markdown table.
func printBudget(w io.Writer, workloads []string, rows map[string][]budgetRow) {
	fmt.Fprintf(w, "| workload | op | n | %s | sum | e2e p50 | closes |\n", strings.Join(budgetColumns, " | "))
	fmt.Fprintf(w, "|%s\n", strings.Repeat("---|", len(budgetColumns)+6))
	for _, workload := range workloads {
		printBudgetRows(w, workload, rows[workload])
	}
}

func printBudgetRows(w io.Writer, workload string, rows []budgetRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %d |", workload, r.Op, r.Count)
		for _, col := range budgetColumns {
			fmt.Fprintf(w, " %s |", fmtUs(r.Self[col]))
		}
		fmt.Fprintf(w, " %s | %s | %+.1f%% |\n", fmtUs(r.Sum), fmtUs(r.E2E), 100*(r.Sum/r.E2E-1))
	}
}

// fmtUs prints microseconds with a unit that keeps three significant digits.
func fmtUs(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.3g ms", v/1000)
	case v < 1:
		return fmt.Sprintf("%.3g ns", v*1000)
	}
	return fmt.Sprintf("%.3g µs", v)
}
