// Command served is exploration-as-a-service: an HTTP daemon that runs
// pipeline evaluations from a bounded job queue against a shared
// content-addressed artifact store, and serves that store to remote
// explorers (cmd/explore -store http://HOST).
//
// Usage:
//
//	served [-addr :8344] [-store dir:PATH|mem] [-jobs n] [-queue n]
//	       [-drain-timeout 1m] [-pprof]
//
// Endpoints (docs/SERVICE.md is the full contract):
//
//	POST /v1/jobs                submit an evaluation; 202 {id} or
//	                             retryable 503 when the queue is full.
//	                             An X-Repro-Trace header propagates the
//	                             client's trace context into the daemon's
//	                             spans.
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/result    the Evaluation once status is done,
//	                             plus the job's daemon-side spans for
//	                             cross-process trace merging
//	     /v1/blobs/{ns}/{key}    the shared artifact store (GET/PUT)
//	GET  /healthz                liveness
//	GET  /metrics                the obs registry as JSON; ?format=prom
//	                             for Prometheus text exposition,
//	                             ?format=text for the summary table
//	GET  /dash, /dash/data       live dashboard (single-file HTML) and
//	                             its sampled time-series JSON
//	GET  /debug/flight           the last 256 completed spans (the flight
//	                             dump); also written to stderr on SIGQUIT
//	     /debug/pprof/           continuous profiling, only with -pprof
//
// /metrics, /dash, /dash/data and /debug/flight are obs.Handler, the
// debug surface `explore -dash` serves too.
//
// On SIGINT/SIGTERM the daemon drains: new submits are rejected with a
// retryable 503, in-flight evaluations run to completion (their
// artifacts land in the store), still-queued jobs flip to status
// "retry", and only then does the process exit. Blobs are written
// atomically, so a kill mid-drain never leaves a partial artifact.
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
	"runtime"
	"syscall"
	"time"

	"repro/internal/blob"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	storeSpec := flag.String("store", "dir:served-store", "artifact store: dir:PATH, mem, or http://HOST (chain to another daemon)")
	workers := flag.Int("jobs", runtime.NumCPU(), "concurrent evaluation workers")
	queueCap := flag.Int("queue", 64, "pending-job bound; submits beyond it get a retryable 503")
	drainWait := flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for open HTTP connections")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.Parse()

	st, err := blob.Open(*storeSpec)
	if err != nil {
		log.Fatalln("served:", err)
	}
	reg := obs.NewRegistry()
	srv, err := newServer(st, reg, serverConfig{
		workers:  *workers,
		queueCap: *queueCap,
		pprof:    *pprofOn,
	})
	if err != nil {
		log.Fatalln("served:", err)
	}
	srv.start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		log.Println("served: draining (new submits rejected, in-flight jobs finishing)")
		srv.beginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Println("served: shutdown:", err)
		}
	}()
	obs.DumpFlightOnQuit(reg, "served")

	log.Printf("served: listening on %s, store %s, %d workers, queue %d", *addr, *storeSpec, *workers, *queueCap)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalln("served:", err)
	}
	srv.closeAndWait()
	done := reg.Counter("served.jobs.done").Value()
	retried := reg.Counter("served.jobs.retried").Value()
	fmt.Fprintf(os.Stderr, "served: drained (%d jobs done, %d requeued for retry)\n", done, retried)
}
