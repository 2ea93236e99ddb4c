package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/quaddiag"
	"repro/internal/store"
)

// newServeFromServer persists the hotels quadrant diagram, maps it, and
// serves it — the no-build serving path end to end.
func newServeFromServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	d, err := quaddiag.BuildScanning(dataset.Hotels(), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hotels.sky")
	if err := store.CreateFile(path, d); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h, err := NewServeFrom(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, st
}

// TestServeFromMatchesInMemory: a server whose snapshot is the mapped file
// must answer quadrant queries byte-for-byte like a server that built the
// diagram in memory.
func TestServeFromMatchesInMemory(t *testing.T) {
	mem, _ := newTestServer(t)
	mapped, st := newServeFromServer(t)
	if !st.Mapped() {
		t.Fatal("store fell back to buffered reads on a platform with mmap")
	}
	get := func(base, url string) (int, string) {
		resp, err := http.Get(base + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	for x := -10.0; x <= 110; x += 7.5 {
		for y := -10.0; y <= 110; y += 7.5 {
			url := fmt.Sprintf("/v1/skyline?kind=quadrant&x=%v&y=%v", x, y)
			mc, mb := get(mem.URL, url)
			sc, sb := get(mapped.URL, url)
			if mc != sc || mb != sb {
				t.Fatalf("query (%v,%v): in-memory %d %s, serve-from %d %s", x, y, mc, mb, sc, sb)
			}
		}
	}
}

// TestServeFromRejectsOtherKindsAndWrites: the file holds one diagram kind;
// everything else is 501, not a wrong answer.
func TestServeFromRejectsOtherKindsAndWrites(t *testing.T) {
	srv, _ := newServeFromServer(t)
	for _, kind := range []string{"global", "dynamic"} {
		code := getJSON(t, srv.URL+"/v1/skyline?kind="+kind+"&x=10&y=80", nil)
		if code != http.StatusNotImplemented {
			t.Fatalf("kind %s on quadrant file: code %d, want 501", kind, code)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/points", "application/json",
		bytes.NewBufferString(`{"id":99,"coords":[13,85]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("insert on read-only snapshot: code %d, want 501", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/points/3", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("delete on read-only snapshot: code %d, want 501", resp.StatusCode)
	}
	var stats statsResponse
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats code %d", code)
	}
	if stats.Points != len(dataset.Hotels()) || stats.Cells != 144 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestCompactionBoundsArenaUnderChurn pins the garbage-ratio policy: under
// sustained insert/delete churn the copy-on-write arenas must stay bounded
// (the leader compacts once garbage crosses the ratio) and the served
// answers must stay identical to a from-scratch build of the same points.
func TestCompactionBoundsArenaUnderChurn(t *testing.T) {
	h, err := New(dataset.Hotels(), Config{CompactRatio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for k := 0; k < 60; k++ {
		p := geom.Pt2(900+k, float64(3+(7*k)%95)+0.5, float64(2+(11*k)%93)+0.25)
		if _, err := h.submitOp(ctx, core.InsertOp(p)); err != nil {
			t.Fatal(err)
		}
		if _, err := h.submitOp(ctx, core.DeleteOp(900+k)); err != nil {
			t.Fatal(err)
		}
	}
	if h.compactions.Value() == 0 {
		t.Fatal("no compaction triggered by 120 churn ops at ratio 0.3")
	}
	set := h.snapshot().diagramSet()
	if ratio := set.ArenaGarbageRatio(); ratio >= 0.5 {
		live, total := set.ArenaLive()
		t.Fatalf("arena unbounded under churn: garbage ratio %.2f (live %d, total %d)", ratio, live, total)
	}
	// Same answers as a cold build of the final point set, on every kind.
	fresh, err := core.BuildSet(set.Points, core.UpdateOptions{MaxDynamicPoints: 128})
	if err != nil {
		t.Fatal(err)
	}
	snap := h.snapshot()
	for x := 0.0; x <= 100; x += 9 {
		for y := 0.0; y <= 100; y += 9 {
			if got, want := snap.quadrant.QueryXY(x, y), fresh.Quadrant.QueryXY(x, y); !equalIDs(got, want) {
				t.Fatalf("quadrant (%v,%v): churned %v, fresh %v", x, y, got, want)
			}
			if got, want := snap.global.QueryXY(x, y), fresh.Global.QueryXY(x, y); !equalIDs(got, want) {
				t.Fatalf("global (%v,%v): churned %v, fresh %v", x, y, got, want)
			}
			if got, want := snap.dynamic.QueryXY(x, y), fresh.Dynamic.QueryXY(x, y); !equalIDs(got, want) {
				t.Fatalf("dynamic (%v,%v): churned %v, fresh %v", x, y, got, want)
			}
		}
	}
}

// TestCompactionDisabled: a negative ratio switches the policy off and
// garbage is free to accumulate — the escape hatch keeps working.
func TestCompactionDisabled(t *testing.T) {
	h, err := New(dataset.Hotels(), Config{CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for k := 0; k < 20; k++ {
		p := geom.Pt2(900+k, float64(3+(7*k)%95)+0.5, float64(2+(11*k)%93)+0.25)
		if _, err := h.submitOp(ctx, core.InsertOp(p)); err != nil {
			t.Fatal(err)
		}
		if _, err := h.submitOp(ctx, core.DeleteOp(900+k)); err != nil {
			t.Fatal(err)
		}
	}
	if h.compactions.Value() != 0 {
		t.Fatalf("compactions ran with the policy disabled: %d", h.compactions.Value())
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
