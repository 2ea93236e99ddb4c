// Command skyrouter fronts a pool of skyserve read replicas of one dataset:
// it health-checks each over /v1/ready (readiness plus snapshot-epoch
// freshness), sends each read to the first usable replica in -replicas
// order (healthy and epoch-fresh replicas first), fails reads over on
// errors and open circuit breakers, and forwards writes to the builder
// node. Clients keep speaking the skyserve API — the router is a drop-in
// address swap.
//
//	skyrouter -replicas http://r1:8081,http://r2:8082 \
//	          -primary  http://builder:8080 -addr :8090
//
// A typical deployment: one skyserve builder (-in data.csv) publishing
// epoch-stamped snapshots at /v1/snapshot, N replicas pulling them
// (skyserve -primary http://builder:8080 -snapshot-dir /var/sky), and one
// or more skyrouters in front. See docs/SCALEOUT.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated read replica base URLs, in preference order (required)")
	primary := flag.String("primary", "", "builder base URL for writes (empty: writes answer 501)")
	staleEpochs := flag.Uint64("stale-epochs", 0, "snapshot lag (epochs) a replica may carry and still be preferred")
	healthEvery := flag.Duration("health-interval", time.Second, "replica health poll interval")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures opening a replica's breaker (0: client default, <0: disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "breaker cooldown before a half-open probe (0: client default)")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	flag.Parse()

	var pool []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			pool = append(pool, r)
		}
	}
	if len(pool) == 0 {
		log.Fatal("skyrouter: -replicas is required (comma-separated base URLs)")
	}

	rt, err := router.New(router.Config{
		Replicas:         pool,
		Primary:          *primary,
		StaleEpochs:      *staleEpochs,
		HealthInterval:   *healthEvery,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	})
	if err != nil {
		log.Fatalf("skyrouter: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go rt.Run(ctx)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("skyrouter: %d replicas, listening on %s\n", len(pool), *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("skyrouter: shutting down, draining for up to %s", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("skyrouter: shutdown: %v", err)
	}
}
