// Command lightwsp-serve exposes the simulation harness as a long-running
// HTTP/JSON daemon: compile, run, run-with-failure, crash-fuzzing and full
// experiment endpoints over one process-wide result cache and worker pool,
// so a fleet of clients shares simulations instead of re-running them.
//
//	lightwsp-serve -addr :8080 -j 8 -cache /var/cache/lightwsp \
//	    -session-dir /var/lib/lightwsp/sessions -snapshot-every 500000
//
// With -session-dir the daemon also hosts durable sessions (/v1/session):
// long-lived runs a client advances incrementally, journaled and
// periodically snapshotted so they survive power loss and restarts — a
// rebooted server replays the recovery protocol and reopens every session,
// and clients resume their event streams byte-identically from the last
// sequence number they saw.
//
// Requests beyond the worker pool plus queue get 429 with Retry-After. On
// SIGTERM/SIGINT the server drains: /healthz flips to 503, new work is
// refused, in-flight requests finish (bounded by -drain-timeout), every
// open session takes a final durable snapshot (lossless drain), the cache
// manifest is flushed, and the process exits 0. If the drain deadline
// fires with runs still executing, each victim's flight recorder dumps its
// final probe events — tagged with the session ID when the victim was a
// session operation — to the flight directory first.
//
// Telemetry: structured access and lifecycle logs on stderr (-log-level,
// -log-format), a Prometheus exposition at /metrics, per-request trace IDs
// (X-LightWSP-Trace) threaded into manifests and timeline exports, and an
// optional loopback-only -debug-addr serving net/http/pprof plus /metrics.
//
// Fleets: several nodes become one cache-coherent service with
// -fleet-self/-fleet-peers (a shared rendezvous ring over session IDs;
// wrong-node session requests forward one hop to their owner) and -l2
// (a shared store — directory or peer URL — every node's cache reads
// through and publishes to). Front the fleet with lightwsp-lb.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lightwsp/internal/cli"
	"lightwsp/internal/server"
)

func main() {
	var common cli.Common
	common.Register(flag.CommandLine)
	var sessions cli.Sessions
	sessions.Register(flag.CommandLine)
	var fleetFlags cli.Fleet
	fleetFlags.Register(flag.CommandLine)
	var (
		addr  = flag.String("addr", ":8080", "listen address")
		queue = flag.Int("queue", 0,
			"admission queue depth beyond the worker pool (0: twice the workers)")
		timeout = flag.Duration("timeout", 0,
			"default per-request deadline (0: unbounded; requests may set timeout_ms)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"how long graceful shutdown waits for in-flight requests")
		flightDir = flag.String("flight-dir", "",
			"flight-recorder dump directory (default <cache>/flightrec when -cache is set)")
		timelineDir = flag.String("timeline-dir", "",
			"export a Chrome trace-event timeline per fresh run into this directory")
		debugAddr = flag.String("debug-addr", "",
			"loopback-only debug listener serving net/http/pprof and /metrics, e.g. 127.0.0.1:6060")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	log, err := common.Logger()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightwsp-serve: %v\n", err)
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Workers:          common.Workers,
		QueueDepth:       *queue,
		CacheDir:         common.CacheDir,
		RequestTimeout:   *timeout,
		Progress:         common.Progress(),
		Logger:           log,
		FlightDir:        *flightDir,
		TimelineDir:      *timelineDir,
		SessionDir:       sessions.Dir,
		SnapshotEvery:    sessions.SnapshotEvery,
		SnapshotInterval: sessions.SnapshotInterval,
		FleetSelf:        fleetFlags.Self,
		FleetPeers:       fleetFlags.PeerList(),
		L2:               fleetFlags.Store(),
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	var debugSrv *http.Server
	if *debugAddr != "" {
		if !loopbackAddr(*debugAddr) {
			fmt.Fprintf(os.Stderr, "lightwsp-serve: -debug-addr %q is not loopback-only (use 127.0.0.1:PORT or [::1]:PORT)\n", *debugAddr)
			os.Exit(2)
		}
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugMux(srv)}
		go func() {
			log.Info("debug listener up", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug listener failed", "error", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", *addr, "workers", common.Workers,
			"queue", *queue, "cache", common.CacheDir, "sessions", sessions.Dir)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Error("serve failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Info("signal received; draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Warn("drain incomplete", "error", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("shutdown", "error", err)
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	<-errc // ListenAndServe has returned http.ErrServerClosed
	log.Info("done")
}

// debugMux is the loopback-only diagnostics surface: the four standard pprof
// handlers plus the same Prometheus exposition the public mux serves, so an
// operator on the box can profile and scrape without touching the API port.
func debugMux(srv *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", srv.MetricsHandler())
	return mux
}

// loopbackAddr reports whether addr binds a loopback interface only — the
// pprof surface must never face the network.
func loopbackAddr(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return false
	}
	if strings.EqualFold(host, "localhost") {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}
