// Command lightwsp-lb fronts a fleet of lightwsp-serve nodes with one
// health-aware entry point:
//
//	lightwsp-lb -addr :8080 \
//	    -nodes http://10.0.0.1:8081,http://10.0.0.2:8081,http://10.0.0.3:8081
//
// Session operations route by session ID on the same rendezvous ring the
// nodes themselves use, so each session lands on its single writer; runs
// and everything else go round-robin, since any node serves any run and the
// shared L2 store carries results between nodes. A background poller probes
// every node's /healthz and /stats; an unhealthy or draining node leaves the
// ring (its sessions rehash onto survivors), and a node that dies between
// polls is ejected the moment a proxy attempt fails, with the request
// failing over to the next candidate. Backend admission decisions (429 +
// Retry-After) pass through verbatim: backpressure stays with the nodes.
//
// The lb serves its own /healthz (200 while at least one backend is in the
// ring), /lb/status (per-node probe state as JSON) and /metrics (Prometheus
// text format: per-node health and load, ring size, forward/failover
// counters). Everything else proxies.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lightwsp/internal/cli"
	"lightwsp/internal/fleet"
)

func main() {
	var common cli.Common
	common.RegisterLogging(flag.CommandLine)
	var (
		addr  = flag.String("addr", ":8080", "listen address")
		nodes = flag.String("nodes", os.Getenv(cli.FleetPeersEnv),
			"comma-separated backend base URLs (defaults to $"+cli.FleetPeersEnv+")")
		poll = flag.Duration("poll", 500*time.Millisecond,
			"health-poll period for backend /healthz and /stats probes")
		probeTimeout = flag.Duration("probe-timeout", 2*time.Second,
			"per-probe timeout; a slower backend counts as down")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	log, err := common.Logger()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightwsp-lb: %v\n", err)
		os.Exit(2)
	}
	backends := (&cli.Fleet{Peers: *nodes}).PeerList()
	if len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "lightwsp-lb: -nodes is required (comma-separated backend URLs)")
		os.Exit(2)
	}

	router := fleet.NewRouter(fleet.RouterConfig{
		Nodes:        backends,
		PollInterval: *poll,
		ProbeTimeout: *probeTimeout,
		Logger:       log,
	})
	pollCtx, stopPoll := context.WithCancel(context.Background())
	defer stopPoll()
	go router.Poll(pollCtx)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !router.Healthy() {
			w.Header().Set("Retry-After", "10")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"no healthy nodes"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /lb/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, statusJSON(router))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := router.WriteProm(w); err != nil {
			log.Error("metrics exposition failed", "error", err)
		}
	})
	mux.Handle("/", router)
	httpSrv := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Info("lb listening", "addr", *addr, "nodes", backends, "poll", *poll)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Error("serve failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	log.Info("signal received; shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("shutdown", "error", err)
	}
	<-errc
	log.Info("done")
}

// statusJSON renders the per-node probe state by hand — the fleet package
// keeps its types flat enough that this stays trivial.
func statusJSON(router *fleet.Router) string {
	out := `{"nodes":[`
	for i, st := range router.Status() {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf(`{"url":%q,"healthy":%t,"in_flight":%d,"queued":%d,"draining":%t}`,
			st.URL, st.Healthy, st.InFlight, st.Queued, st.Draining)
	}
	return out + "]}\n"
}
