package main

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/skyline"
)

// verify checks every kept answer against the internal/skyline oracles on
// the point set of the epoch the response carried: the dataset plus the
// first epoch-1 writes of hist. Queries sit on odd coordinates, off every
// grid line, where diagram and oracle must agree exactly. It returns how
// many answers were wrong and describes the first.
func verify(base []geom.Point, hist []core.Op, checks []check) (wrong int, first string) {
	checks = append([]check(nil), checks...)
	sort.SliceStable(checks, func(i, j int) bool { return checks[i].epoch < checks[j].epoch })
	live := make(map[int]geom.Point, len(base))
	for _, p := range base {
		live[p.ID] = p
	}
	applied := 0
	var pts []geom.Point
	fail := func(c check, why string) {
		wrong++
		if first == "" {
			first = fmt.Sprintf("%s (%g,%g) at epoch %d: %s", c.kind, c.x, c.y, c.epoch, why)
		}
	}
	for _, c := range checks {
		if c.epoch < 1 || c.epoch-1 > uint64(len(hist)) {
			fail(c, "epoch outside the write history")
			continue
		}
		if pts == nil || uint64(applied) < c.epoch-1 {
			for ; uint64(applied) < c.epoch-1; applied++ {
				if o := hist[applied]; o.Insert {
					live[o.ID] = o.Point
				} else {
					delete(live, o.ID)
				}
			}
			pts = pts[:0]
			for _, p := range live {
				pts = append(pts, p)
			}
			sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
		}
		q := geom.Pt2(-1, c.x, c.y)
		var want []geom.Point
		switch c.kind {
		case "quadrant":
			want = skyline.QuadrantSkyline(pts, q, 0)
		case "global":
			want = skyline.GlobalSkyline(pts, q)
		case "dynamic":
			want = skyline.DynamicSkyline(pts, q)
		default:
			fail(c, "unknown kind")
			continue
		}
		got := make([]int, len(c.ids))
		for i, id := range c.ids {
			got[i] = int(id)
		}
		sort.Ints(got)
		if ids := geom.IDs(want); !slices.Equal(got, ids) {
			fail(c, fmt.Sprintf("got %v, oracle %v", got, ids))
		}
	}
	return wrong, first
}
