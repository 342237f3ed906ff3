// Command dftd is the DFT-as-a-service daemon: it serves the
// toolkit's fault simulation, ATPG, fault diagnosis, DFT advising and
// differential fuzzing as asynchronous HTTP/JSON jobs with a bounded
// queue, a worker pool, request coalescing, an LRU result cache, and
// graceful drain. Jobs run through the same runner as the matching
// dftc subcommands (internal/pipeline).
//
// Usage:
//
//	dftd [-addr :8345] [-workers N] [-queue N] [-job-timeout D]
//	     [-cache N] [-report file.json] [-pprof]
//
// API:
//
//	POST   /v1/jobs              {"kind":"faultsim|atpg|diagnose|advise|fuzz",
//	                             "builtin":"adder", "n":8,
//	                             "options":{...}} or {"bench":"..."}
//	GET    /v1/jobs/{id}         job state; a done job embeds its
//	                             dft.run-report/v1 document
//	GET    /v1/jobs/{id}/trace   the job's span tree (live while running)
//	GET    /v1/jobs/{id}/events  SSE stream: queue position, phase
//	                             transitions, progress, heartbeats, end
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /healthz              liveness and queue occupancy
//	GET    /metrics              Prometheus text exposition
//	/debug/pprof/...             Go profiling endpoints (only with -pprof)
//
// A full queue answers 429 with the depth in a JSON error body.
// SIGINT/SIGTERM stop admission, drain in-flight jobs (bounded by
// -drain), and flush a final telemetry run report to stderr or the
// -report file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // handlers registered on DefaultServeMux; mounted only with -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"dft/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dftd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dftd", flag.ContinueOnError)
	addr := fs.String("addr", ":8345", "listen address")
	workers := fs.Int("workers", 0, "job workers (0 = all CPUs)")
	queue := fs.Int("queue", 64, "admission queue depth; full queue answers 429")
	jobTimeout := fs.Duration("job-timeout", 2*time.Minute, "per-job deadline (0 = no limit)")
	cache := fs.Int("cache", 256, "result-cache entries (LRU)")
	drain := fs.Duration("drain", 30*time.Second, "shutdown drain budget before in-flight jobs are cancelled")
	report := fs.String("report", "", "write the final telemetry run report to this file (default stderr)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof (opt-in: exposes goroutine and heap internals)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("dftd takes no positional arguments")
	}

	srv := service.New(service.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		JobTimeout: *jobTimeout,
		CacheSize:  *cache,
	})
	var handler http.Handler = srv
	if *pprofOn {
		// The pprof handlers register on http.DefaultServeMux via the
		// package import; mount that mux beside the service routes so
		// the profiling surface exists only when asked for.
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		mux.Handle("/", srv)
		handler = mux
		fmt.Fprintln(os.Stderr, "dftd: pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "dftd: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // bind failure etc.; nothing to drain
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "dftd: signal received, draining")

	// Stop accepting connections first, then drain the job queue.
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "dftd: http shutdown:", err)
	}
	rep, err := srv.Shutdown(shutCtx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dftd: drain incomplete:", err)
	}

	out := os.Stderr
	if *report != "" {
		f, ferr := os.Create(*report)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		out = f
	}
	return rep.WriteJSON(out)
}
