// Command fivealarmsd serves the fivealarms study over HTTP: the v1
// JSON risk-query API (see internal/serve/api for the wire contract).
//
// Usage:
//
//	fivealarmsd [flags]
//
// The server builds its first study lazily on first request; studies
// for other seeds (?seed=N) are built on demand and held in a bounded
// LRU. Serving is overload-resilient: per-route deadlines, weighted
// admission control with bounded queueing (-inflight, -queue), a
// circuit breaker around study builds, and degraded last-known-good
// responses — see DESIGN.md "Overload & degradation policy".
// SIGINT/SIGTERM triggers a graceful drain: the listener closes,
// in-flight requests finish (up to -grace), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fivealarms"
	"fivealarms/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8417", "listen address (host:port; port 0 picks a free port)")
		seed     = flag.Uint64("seed", 7, "default master random seed")
		cell     = flag.Float64("cell", 10000, "world raster cell size in meters")
		tx       = flag.Int("transceivers", 150000, "synthetic OpenCelliD snapshot size")
		fires    = flag.Int("fires", 60, "mapped fires per simulated season")
		shards   = flag.Int("shards", 0, "join Table 1 and the validation over this many CONUS row bands (0 or 1 = one band)")
		snapshot = flag.String("snapshot", "", "warm-load the transceiver layer from this columnar snapshot file")

		studies = flag.Int("studies", 4, "max studies resident in the LRU cache")
		grace   = flag.Duration("grace", 30*time.Second, "graceful shutdown drain budget")
		warm    = flag.Bool("warm", false, "build the default study before accepting connections")

		readDeadline  = flag.Duration("read-deadline", 0, "deadline for cheap read endpoints (0 = server default)")
		buildDeadline = flag.Duration("build-deadline", 0, "deadline for expensive endpoints like /v1/extend (0 = server default)")
		inflight      = flag.Int("inflight", 0, "admission weight capacity (0 = server default)")
		queue         = flag.Int("queue", 0, "admission wait-queue bound; arrivals beyond it get 429 (0 = server default)")
		breakerTrips  = flag.Int("breaker-threshold", 0, "consecutive build failures that open the build circuit (0 = server default)")
		breakerWait   = flag.Duration("breaker-backoff", 0, "base open-circuit backoff, doubled per reopen (0 = server default)")
	)
	flag.Parse()
	opts := serve.Options{
		Config: fivealarms.Config{
			Seed:                 *seed,
			CellSizeM:            *cell,
			Transceivers:         *tx,
			MappedFiresPerSeason: *fires,
			Shards:               *shards,
			SnapshotPath:         *snapshot,
		},
		MaxStudies:       *studies,
		ReadDeadline:     *readDeadline,
		BuildDeadline:    *buildDeadline,
		MaxInFlight:      *inflight,
		MaxQueue:         *queue,
		BreakerThreshold: *breakerTrips,
		BreakerBackoff:   *breakerWait,
	}
	if err := run(*addr, opts, *grace, *warm); err != nil {
		fmt.Fprintln(os.Stderr, "fivealarmsd:", err)
		os.Exit(1)
	}
}

func run(addr string, opts serve.Options, grace time.Duration, warm bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := serve.New(ctx, opts)
	if err != nil {
		return err
	}
	if warm {
		fmt.Fprintln(os.Stderr, "fivealarmsd: warming default study")
		if err := srv.Warm(ctx); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Hardened server (slowloris timeouts, header cap); deliberately no
	// BaseContext tied to the signal context: Shutdown below drains
	// in-flight requests instead of aborting them.
	hs := serve.NewHTTPServer(srv.Handler())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }() //fivealarms:allow(goroleak) Serve returns when Shutdown below closes the listener, so the goroutine's lifetime is bounded by this function
	fmt.Printf("listening on http://%s\n", ln.Addr())

	select {
	case err := <-errc:
		return err // listener failed before any shutdown signal
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills hard
	fmt.Fprintln(os.Stderr, "fivealarmsd: draining")

	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "fivealarmsd: drained, bye")
	return nil
}
