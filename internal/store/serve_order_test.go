package store_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/server"
	"repro/internal/store"
)

// TestServeFromUnorderedFileAnswersAlike: a serve-from handler over a v4
// file whose points are not in id order answers every probe with the JSON,
// byte for byte, of one over the same file with its points in id order. A
// single-query answer renders its points from the store's, which must be
// in id order for that.
func TestServeFromUnorderedFileAnswersAlike(t *testing.T) {
	ordered := store.MaintainedFile(t, 40, 19)
	dir := t.TempDir()
	serve := func(name string, data []byte) *server.Handler {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.OpenMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		h, err := server.NewServeFrom(st, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	want, got := serve("ordered.sky", ordered), serve("unordered.sky", store.UnorderedPoints(ordered))
	answer := func(h *server.Handler, url string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Code, rec.Body.String()
	}
	for x := -2.0; x <= 42; x += 1.75 {
		for y := -2.0; y <= 42; y += 2.25 {
			url := fmt.Sprintf("/v1/skyline?kind=quadrant&x=%v&y=%v", x, y)
			wc, wb := answer(want, url)
			gc, gb := answer(got, url)
			if wc != http.StatusOK || gc != wc || gb != wb {
				t.Fatalf("query (%v,%v): unordered file %d %s, ordered file %d %s", x, y, gc, gb, wc, wb)
			}
		}
	}
}
