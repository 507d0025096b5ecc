// Package server exposes the simulation harness as a long-running HTTP/JSON
// daemon: one process-wide experiments.Runner (memo table, disk cache,
// worker pool) shared by every request, with bounded-queue admission
// control, per-request deadlines that propagate into the simulation loop,
// NDJSON streaming of protocol events, and graceful drain on shutdown.
//
// API surface (all request/response bodies are JSON):
//
//	GET  /healthz            liveness (503 while draining)
//	GET  /stats              cache counters + admission statistics
//	GET  /metrics            Prometheus text-format exposition
//	GET  /v1/experiments     registry listing (name + description)
//	GET  /v1/debug/run/{id}  a recent run's record by trace ID
//	POST /v1/compile         static compilation statistics for a workload
//	POST /v1/run             one cached simulation run
//	POST /v1/run/stream      one fresh run, streaming NDJSON events
//	POST /v1/run-with-failure  power-cut + recovery round trip
//	POST /v1/crashfuzz       a crash-consistency fuzzing campaign
//	POST /v1/experiment      a full registry experiment (fig7, tab2, ...)
//	POST /v1/session         create a durable session
//	GET  /v1/session         list open sessions
//	GET  /v1/session/{id}    one session's status
//	DELETE /v1/session/{id}  remove a session and its snapshots
//	POST /v1/session/{id}/advance  run forward, streaming NDJSON events
//	POST /v1/session/{id}/resume   replay events after a last-seen seq
//	GET/PUT/DELETE /v1/blob/{hash} peer store API: sealed blob transfer
//	POST/DELETE /v1/lease/{name}   peer lease arbiter (fleet singleflight)
//
// Fleets (Config.FleetSelf/FleetPeers/L2): several nodes share one
// rendezvous-hash ring over session IDs. A session request that lands on
// the wrong member is forwarded to the session's owner (one hop,
// loop-guarded by X-LightWSP-Forwarded), because a session has a single
// writer. Any node serves run requests itself: every node's cache reads
// through the shared L2 store, and a fleet-wide lease makes concurrent
// requests for one run key simulate exactly once. X-LightWSP-Served-By
// names the node that answered.
//
// Durable sessions (enabled by Config.SessionDir) are long-lived runs that
// survive power loss and server restarts: every advance is journaled before
// it executes, the machine is periodically snapshotted (checkpoint state +
// persistent-memory image, content-addressed into the session store), and a
// restarted server replays the recovery protocol to reopen every session at
// its last journaled position. Streams are resumable: a client that lost
// its connection posts its last-seen sequence number to /resume and
// receives exactly the events after it, byte-identical to an uninterrupted
// stream.
//
// Admission: at most Workers+QueueDepth requests are admitted at once;
// beyond that the server answers 429 with Retry-After. During drain new
// work gets 503 while admitted requests run to completion. Error mapping:
// a request deadline that fires mid-simulation is 504; simulation-budget
// failures (WPQ overflow, cycle budget) are 422; unrecoverable crash
// images are 500; unknown workloads are 404 and unknown schemes 400.
//
// Telemetry: every request carries an X-LightWSP-Trace identity (honored
// from the client when valid, generated otherwise, always echoed on the
// response) that threads into access logs, run manifests, timeline exports
// and the flight recorder — a bounded ring of each in-flight run's recent
// probe events, dumped to disk when a run dies (error, deadline, panic, or
// an interrupted drain).
package server

import (
	"lightwsp/internal/compiler"
	"lightwsp/internal/crashfuzz"
	"lightwsp/internal/experiments"
	"lightwsp/internal/machine"
	"lightwsp/internal/metrics"
)

// RunRequest names one simulation: a workload profile, a persistence scheme
// and an optional per-request deadline.
type RunRequest struct {
	// Suite and App select the workload profile (case-insensitive), e.g.
	// {"suite":"cpu2006","app":"hmmer"}.
	Suite string `json:"suite"`
	App   string `json:"app"`
	// Scheme is the persistence scheme name (lightwsp, baseline, capri,
	// ppa, cwsp, psp-ideal, naive-sfence); empty means lightwsp.
	Scheme string `json:"scheme,omitempty"`
	// TimeoutMS bounds this request in milliseconds (0: the server
	// default). Expiry cancels the simulation at cycle-batch granularity
	// and answers 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RunResponse is the deterministic result of a run: identical requests
// produce byte-identical responses whether the run was fresh, disk-cached
// or joined onto another client's in-flight simulation.
type RunResponse struct {
	Suite  string `json:"suite"`
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	// KeyHash is the canonical run-key hash identifying the simulation in
	// caches and manifests.
	KeyHash string        `json:"key_hash"`
	Stats   machine.Stats `json:"stats"`
}

// CompileRequest asks for the region compiler's static statistics.
type CompileRequest struct {
	Suite string `json:"suite"`
	App   string `json:"app"`
	// StoreThreshold overrides the §IV-A default (half the WPQ size).
	StoreThreshold int `json:"store_threshold,omitempty"`
}

// CompileResponse reports the resolved configuration and the compiler's
// static statistics.
type CompileResponse struct {
	Suite          string         `json:"suite"`
	App            string         `json:"app"`
	StoreThreshold int            `json:"store_threshold"`
	Stats          compiler.Stats `json:"stats"`
}

// FailureRequest runs a workload under LightWSP, cuts power at FailCycle,
// recovers and runs the recovered machine to completion.
type FailureRequest struct {
	Suite string `json:"suite"`
	App   string `json:"app"`
	// FailCycle is the power-cut cycle; if the program finishes first no
	// failure is injected.
	FailCycle uint64 `json:"fail_cycle"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// FailureResponse reports one crash/recover round trip.
type FailureResponse struct {
	Suite string `json:"suite"`
	App   string `json:"app"`
	// Failed is false when execution completed before the injection point.
	Failed bool `json:"failed"`
	// Discarded counts WPQ entries of unpersisted regions dropped by the
	// §IV-F drain.
	Discarded int `json:"discarded"`
	// Cycles is the recovered run's final cycle count.
	Cycles uint64 `json:"cycles"`
	// Consistent reports whether the final persisted image matches the
	// architectural state over the user address range.
	Consistent bool `json:"consistent"`
}

// CrashfuzzRequest runs one crash-consistency fuzzing campaign.
type CrashfuzzRequest struct {
	Suite string `json:"suite"`
	App   string `json:"app"`
	// Cuts is successive power failures per schedule (minimum 1).
	Cuts int `json:"cuts,omitempty"`
	// Seed drives sampled-mode cycle selection (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Threshold and Points tune the schedule planner (0: package defaults).
	Threshold uint64 `json:"threshold,omitempty"`
	Points    int    `json:"points,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// CrashfuzzResponse wraps the campaign result.
type CrashfuzzResponse struct {
	Result *crashfuzz.Result `json:"result"`
}

// ExperimentRequest runs one full registry experiment by name.
type ExperimentRequest struct {
	Name      string `json:"name"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// ExperimentResponse carries the experiment's rendered table or figure.
type ExperimentResponse struct {
	Name string `json:"name"`
	// Text is the driver's rendered output, exactly as lightwsp-bench
	// prints it.
	Text        string  `json:"text"`
	WallSeconds float64 `json:"wall_seconds"`
}

// ExperimentInfo is one /v1/experiments listing entry.
type ExperimentInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// StatsResponse is the /stats snapshot: the shared runner's cache counters
// plus the admission gate's request accounting.
type StatsResponse struct {
	// FreshRuns/DiskCacheHits/MemCacheHits/LeaseJoins are the process-wide
	// runner counters (see experiments.Counters); LeaseJoins counts runs
	// joined from a fleet peer's result under the singleflight lease.
	FreshRuns     int `json:"fresh_runs"`
	DiskCacheHits int `json:"disk_cache_hits"`
	MemCacheHits  int `json:"mem_cache_hits"`
	LeaseJoins    int `json:"lease_joins"`
	// Workers and QueueDepth describe the admission gate: at most
	// Workers+QueueDepth requests are in flight at once.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// InFlight and Queued are the gate's live occupancy: requests currently
	// executing and requests admitted but waiting for a worker.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// Admitted/Completed count requests past the gate; RejectedBusy is
	// 429s, RejectedDraining 503s.
	Admitted         int64 `json:"admitted"`
	Completed        int64 `json:"completed"`
	RejectedBusy     int64 `json:"rejected_busy"`
	RejectedDraining int64 `json:"rejected_draining"`
	// Draining is true once graceful shutdown began.
	Draining bool `json:"draining"`
	// SessionsOpen counts open durable sessions; SessionsRestored how many
	// were restored from disk at startup. Both zero when sessions are off.
	SessionsOpen     int   `json:"sessions_open"`
	SessionsRestored int64 `json:"sessions_restored"`
	// Metrics aggregates every resolved run's probe metrics.
	Metrics metrics.Snapshot `json:"metrics"`
}

// DebugRunResponse is one /v1/debug/run/{id} record: a recent run's
// identity, outcome and timing, the flight-dump path if one was written,
// and the Runner's provenance manifest when the run key is known.
type DebugRunResponse struct {
	TraceID  string `json:"trace_id"`
	Endpoint string `json:"endpoint"`
	Suite    string `json:"suite,omitempty"`
	App      string `json:"app,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	KeyHash  string `json:"key_hash,omitempty"`
	// Source is the run's resolution provenance ("fresh" or "cached") when
	// the manifest recorded it.
	Source string `json:"source,omitempty"`
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	// DurationMS is the request's total wall time; QueueWaitMS the portion
	// spent waiting for a worker-pool slot (streaming/failure runs only).
	DurationMS  float64 `json:"duration_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// FlightDump is the path of the flight-recorder dump, when the run died
	// badly enough to leave one.
	FlightDump string                   `json:"flight_dump,omitempty"`
	FinishedAt string                   `json:"finished_at"`
	Manifest   *experiments.RunManifest `json:"manifest,omitempty"`
}

// SessionCreateRequest creates one durable session (POST /v1/session).
type SessionCreateRequest struct {
	// ID names the session ([A-Za-z0-9][A-Za-z0-9._-]{0,63}); empty gets a
	// generated one (returned in the response).
	ID string `json:"id,omitempty"`
	// Suite and App select the workload profile, like RunRequest.
	Suite string `json:"suite"`
	App   string `json:"app"`
	// Scheme must be an instrumented persistence scheme (snapshots are
	// power failures; only instrumented schemes recover); empty means
	// lightwsp.
	Scheme string `json:"scheme,omitempty"`
	// SnapshotEvery is the automatic snapshot cadence in session-total
	// cycles; 0 inherits the server default.
	SnapshotEvery uint64 `json:"snapshot_every,omitempty"`
}

// SessionAdvanceRequest runs a session forward (POST /v1/session/{id}/advance).
// The response streams NDJSON experiments.SessionEvent lines.
type SessionAdvanceRequest struct {
	// Target is the session-total cycle to run until. A target at or below
	// the session's current position streams nothing and succeeds (safe to
	// re-issue after a lost connection).
	Target    uint64 `json:"target"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// SessionResumeRequest replays a session's event stream (POST
// /v1/session/{id}/resume): one unnumbered header line, then exactly the
// events after LastSeq, byte-identical to an uninterrupted stream.
type SessionResumeRequest struct {
	// LastSeq is the highest event seq the client has already seen; 0
	// replays the stream from the beginning.
	LastSeq   uint64 `json:"last_seq"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// SessionListResponse is the GET /v1/session body.
type SessionListResponse struct {
	Sessions []experiments.SessionStatus `json:"sessions"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}
