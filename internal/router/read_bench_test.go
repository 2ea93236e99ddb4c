package router

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/server"
)

// benchmarkRead sends quadrant reads with client.Skyline over loopback to
// an n=400 builder, through a default-Config router when routed. The
// allocations counted are the whole process's: client, router and server.
// scripts/bench.sh gates the hop, routed minus direct, at 80 allocs/op.
func benchmarkRead(b *testing.B, routed bool) {
	pts, err := dataset.Generate(dataset.Config{N: 400, Dim: 2, Dist: dataset.Independent, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	h, err := server.New(dataset.GeneralPosition(pts), server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	builder := httptest.NewServer(h)
	defer builder.Close()
	target := builder.URL
	if routed {
		rt, err := New(Config{Replicas: []string{builder.URL}})
		if err != nil {
			b.Fatal(err)
		}
		front := httptest.NewServer(rt)
		defer front.Close()
		target = front.URL
	}
	c := client.New(target, client.WithRetries(0))
	ctx := context.Background()
	read := func(i int) {
		x, y := float64(i*37%400)+0.5, float64(i*91%400)+0.5
		if _, err := c.Skyline(ctx, "quadrant", x, y); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // warm the connections and the pools
		read(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
}

func BenchmarkReadRouted(b *testing.B) { benchmarkRead(b, true) }
func BenchmarkReadDirect(b *testing.B) { benchmarkRead(b, false) }
