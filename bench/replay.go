package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/store"
	"repro/internal/wal"
)

// The layer replay times the library calls underneath the HTTP layers, on
// the run's own dataset, writes and queries, after the measured window has
// ended: build, maintenance and point location (core, grid), the snapshot
// file's serialize / manifest / delta / patch / open / lookup (store), and
// log commits and checkpoints (wal). Each write is replayed the way the
// builder and a replica process it: ApplyBatch, Commit, serialize,
// manifest, then the replica's Delta, ApplyDelta and OpenMmap.

const (
	// replayOps bounds the writes replayed; at n=400 one costs ~50 ms.
	replayOps = 40
	// replayCheckpointEvery replays a checkpoint after this many writes.
	replayCheckpointEvery = 8
	// locateBlock is how many lookups one timing covers: single lookups
	// take tens of nanoseconds, below what one clock read resolves.
	locateBlock = 256
)

var sink int

// perQueryNs times fn over qs in blocks and returns the median block's
// nanoseconds per query. Three passes let caches settle.
func perQueryNs(qs [][2]float64, fn func(x, y float64) int) float64 {
	var per []float64
	for pass := 0; pass < 3; pass++ {
		for lo := 0; lo+locateBlock <= len(qs); lo += locateBlock {
			t := time.Now()
			for _, q := range qs[lo : lo+locateBlock] {
				sink += fn(q[0], q[1])
			}
			per = append(per, float64(time.Since(t).Nanoseconds())/locateBlock)
		}
	}
	return median(per)
}

// replay runs the layer replay and returns its per-layer metrics.
func replay(base []geom.Point, ops []core.Op, qs [][2]float64, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	opts := core.UpdateOptions{MaxDynamicPoints: maxDynamic, Workers: -1}
	t := time.Now()
	set, err := core.BuildSet(base, opts)
	if err != nil {
		return nil, err
	}
	m["core.build_s"] = time.Since(t).Seconds()

	m["core.query_ns_p50.quadrant"] = perQueryNs(qs, func(x, y float64) int { return len(set.Quadrant.QueryXY(x, y)) })
	m["core.query_ns_p50.global"] = perQueryNs(qs, func(x, y float64) int { return len(set.Global.QueryXY(x, y)) })
	if set.Dynamic != nil {
		m["core.query_ns_p50.dynamic"] = perQueryNs(qs, func(x, y float64) int { return len(set.Dynamic.QueryXY(x, y)) })
	}
	g := set.Quadrant.Grid()
	m["grid.locate_ns_p50"] = perQueryNs(qs, func(x, y float64) int { i, j := g.LocateXY(x, y); return i + j })

	var ser, man, delta, patch, open, dbytes, apply, commit, ckpt []float64
	ms := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
	serialize := func(epoch uint64) ([]byte, *store.Manifest, error) {
		var buf bytes.Buffer
		t := time.Now()
		if err := store.WriteEpoch(&buf, set.Quadrant.Cells(), epoch); err != nil {
			return nil, nil, err
		}
		ser = append(ser, ms(t))
		t = time.Now()
		mf, err := store.NewManifest(buf.Bytes())
		man = append(man, ms(t))
		return buf.Bytes(), mf, err
	}
	path := filepath.Join(dir, "replay.sky")
	openFile := func(data []byte) (*store.Store, error) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
		t := time.Now()
		st, err := store.OpenMmap(path)
		open = append(open, ms(t))
		return st, err
	}

	// The epoch-1 file, opened the way a replica serves it.
	data, mf, err := serialize(1)
	if err != nil {
		return nil, err
	}
	m["store.file_bytes"] = float64(len(data))
	st, err := openFile(data)
	if err != nil {
		return nil, err
	}
	m["store.query_ns_p50"] = perQueryNs(qs, func(x, y float64) int { return len(st.QueryXY(x, y)) })
	st.Close()

	w, _, err := wal.Open(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	defer w.Close()
	ckptPath := filepath.Join(dir, "checkpoint.sky")
	for i, o := range ops[:min(len(ops), replayOps)] {
		epoch := uint64(i + 2)
		batch := []core.Op{o}
		t := time.Now()
		next, res, err := set.ApplyBatch(batch, opts)
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", o, err)
		}
		apply = append(apply, ms(t))
		set = next
		t = time.Now()
		if err := w.Commit(epoch, batch); err != nil {
			return nil, err
		}
		commit = append(commit, float64(time.Since(t).Nanoseconds())/1e3)
		next1, nextMf, err := serialize(epoch)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		d, err := store.Delta(mf, nextMf, next1)
		if err != nil {
			return nil, err
		}
		delta = append(delta, ms(t))
		dbytes = append(dbytes, float64(len(d)))
		t = time.Now()
		if _, err := store.ApplyDelta(data, d); err != nil {
			return nil, err
		}
		patch = append(patch, ms(t))
		st, err := openFile(next1)
		if err != nil {
			return nil, err
		}
		st.Close()
		if (i+1)%replayCheckpointEvery == 0 {
			t = time.Now()
			if err := store.CreateFileEpoch(ckptPath, set.Quadrant.Cells(), epoch); err != nil {
				return nil, err
			}
			if err := w.Checkpoint(epoch); err != nil {
				return nil, err
			}
			ckpt = append(ckpt, ms(t))
		}
		data, mf = next1, nextMf
	}
	m["core.arena_garbage_ratio"] = set.ArenaGarbageRatio()

	p50 := func(v []float64) float64 { return percentile(sorted(v), 50) }
	p90 := func(v []float64) float64 { return percentile(sorted(v), 90) }
	m["core.apply_ms_p50"], m["core.apply_ms_p90"] = p50(apply), p90(apply)
	m["store.serialize_ms_p50"] = p50(ser)
	m["store.manifest_ms_p50"] = p50(man)
	m["store.delta_ms_p50"] = p50(delta)
	m["store.apply_delta_ms_p50"] = p50(patch)
	m["store.open_mmap_ms_p50"] = p50(open)
	m["store.delta_bytes_p50"] = p50(dbytes)
	m["wal.commit_us_p50"], m["wal.commit_us_p90"] = p50(commit), p90(commit)
	m["wal.checkpoint_ms_p50"] = p50(ckpt)
	return m, nil
}
