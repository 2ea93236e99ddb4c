package server

import (
	"math"
	"strconv"
	"sync"

	"repro/internal/geom"
)

// Pooled append-based JSON encoding for the two hot read endpoints. The
// generic encoding/json path allocates per response (reflection scratch,
// intermediate slices, the encoder itself); the query handlers instead append
// into a pooled buffer, rendering each answered point from the snapshot's
// id-ordered points, so a cache-warm query performs zero heap allocations
// after routing. Byte-for-byte output compatibility with encoding/json
// (including the trailing newline json.Encoder emits) is pinned by
// TestEncodeMatchesEncodingJSON.

// bufPool recycles response buffers. Stored as *[]byte so Put does not
// allocate an interface box; buffers keep whatever capacity they grew to, so
// steady-state traffic stops allocating once the pool is warm.
var bufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte   { return bufPool.Get().(*[]byte) }
func putBuf(bp *[]byte) { *bp = (*bp)[:0]; bufPool.Put(bp) }

// idsPool recycles the id buffers queries are answered into, stored as
// *[]int32 for the same reason as bufPool. A fresh buffer starts small,
// because a collection empties the pool every few batches; one that grows
// keeps its capacity.
var idsPool = sync.Pool{
	New: func() interface{} {
		ids := make([]int32, 0, 64)
		return &ids
	},
}

// answerer is what the query handlers need of a diagram: its answer to the
// query (x, y) appended to dst, as core.Diagram.AppendQueryXY gives it.
type answerer interface {
	AppendQueryXY(dst []int32, x, y float64) []int32
}

// appendAnswers is the answer-and-encode step both query handlers share.
// Each query is answered against d into a pooled id buffer, which the
// encoder then reads: a batch renders in handleBatch's form, a single query
// (batch false, queries[0]) in handleSkyline's, with its points from pts.
// Quadrant and dynamic answers copy an arena slice into the buffer and
// global ones merge their four quadrant components there, so once both
// pools are warm the step allocates nothing for any kind.
func appendAnswers(b []byte, d answerer, kind string, queries [][]float64, batch bool, pts []geom.Point) []byte {
	ip := idsPool.Get().(*[]int32)
	ids := *ip
	if batch {
		b = appendBatchResponse(b, kind, queries, func(x, y float64) []int32 {
			ids = d.AppendQueryXY(ids[:0], x, y)
			return ids
		})
	} else {
		x, y := queries[0][0], queries[0][1]
		ids = d.AppendQueryXY(ids[:0], x, y)
		b = appendSkylineResponse(b, kind, x, y, ids, pts)
	}
	*ip = ids[:0]
	idsPool.Put(ip)
	return b
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest round-trip form, 'f' notation inside [1e-6, 1e21), 'e' notation
// outside with the exponent's leading zero stripped.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims "e-09" to "e-9".
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendSkylineResponse renders the single-query response. kind must already
// be normalized (it is embedded without escaping), ids are only read, and
// they ascend and name points of pts, which ascend by id too — both come
// from the same immutable snapshot — so each id's point is found by a
// search past the one before.
func appendSkylineResponse(b []byte, kind string, x, y float64, ids []int32, pts []geom.Point) []byte {
	b = append(b, `{"kind":"`...)
	b = append(b, kind...)
	b = append(b, `","query":[`...)
	b = appendJSONFloat(b, x)
	b = append(b, ',')
	b = appendJSONFloat(b, y)
	b = append(b, `],"ids":[`...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, `],"points":[`...)
	k := 0
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		off, _ := geom.SearchID(pts[k:], int(id))
		k += off
		b = appendPointJSON(b, pts[k])
	}
	b = append(b, "]}\n"...)
	return b
}

// appendPointJSON appends p as encoding/json renders its pointJSON.
func appendPointJSON(b []byte, p geom.Point) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(p.ID), 10)
	b = append(b, `,"coords":[`...)
	for i, c := range p.Coords {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, c)
	}
	return append(b, "]}"...)
}

// appendBatchResponse renders the batch response, answering each query
// through answer while encoding — no intermediate result slice is built.
func appendBatchResponse(b []byte, kind string, queries [][]float64, answer func(x, y float64) []int32) []byte {
	b = append(b, `{"kind":"`...)
	b = append(b, kind...)
	b = append(b, `","count":`...)
	b = strconv.AppendInt(b, int64(len(queries)), 10)
	b = append(b, `,"results":[`...)
	for i, q := range queries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"query":[`...)
		b = appendJSONFloat(b, q[0])
		b = append(b, ',')
		b = appendJSONFloat(b, q[1])
		b = append(b, `],"ids":[`...)
		for k, id := range answer(q[0], q[1]) {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, "]}"...)
	}
	b = append(b, "]}\n"...)
	return b
}
