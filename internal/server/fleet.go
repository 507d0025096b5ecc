package server

import (
	"bytes"
	"io"
	"net/http"

	"lightwsp/internal/fleet"
)

// This file is the server side of fleet routing for sessions: a node that
// receives a session request whose ID hashes to another member forwards it
// there, one hop at most. A session has a single writer — its journal and
// live machine belong to one node — so routing every request for it to that
// node is what keeps concurrent advances from two nodes off one journal.
// The lb usually lands session requests on their owner directly; forwarding
// is the correction path for a stale lb view, a client talking to a node
// directly, or a membership disagreement mid-rehash. Run-shaped requests are
// never forwarded: any node serves them locally, the shared L2 carries
// warmth between nodes, and the store lease keeps fleet-wide singleflight.
// An unreachable owner falls back to local serving (the shared session
// directory lets any node reopen a session) rather than erroring.

// maxForwardBody bounds a request body buffered for the forward decision;
// session request bodies are a few hundred bytes.
const maxForwardBody = 8 << 20

// bufferBody reads and replaces the request body so the handler can decode
// it locally after the forward decision (which may have replayed it).
func bufferBody(r *http.Request) ([]byte, error) {
	if r.Body == nil || r.Body == http.NoBody {
		return nil, nil
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxForwardBody))
	if err != nil {
		return nil, err
	}
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	return body, nil
}

// forwardOwned routes a session request to its ring owner when that is a
// different node, reporting whether a peer wrote the response. It walks the
// preference ladder top-down: the first entry that is this node means
// "serve locally"; an unreachable peer is skipped (and counted) rather than
// surfaced, because local serving is the fallback.
func (s *Server) forwardOwned(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	if s.ring == nil {
		return false
	}
	if r.Header.Get(fleet.ForwardedHeader) != "" {
		// Already forwarded once: a second disagreement means the peers'
		// membership views differ, so serve locally and break the loop.
		s.forwardsIn.Add(1)
		return false
	}
	for _, owner := range s.ring.Owners(key) {
		if owner == s.self {
			// Reached our own rank: serve locally. Fall through to the
			// restoration below — a higher-ranked peer may have failed
			// after the proxy attempt consumed the body and dropped the
			// provisional Served-By stamp.
			break
		}
		r.Header.Set(fleet.ForwardedHeader, s.self)
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		// The peer stamps its own identity on the response; drop the one
		// the middleware stamped for the local-serving case.
		w.Header().Del(fleet.ServedByHeader)
		written, err := fleet.Proxy(w, r, owner, s.fleetHC)
		if written {
			s.forwardsOut.Add(1)
			if ri := reqInfoFrom(r.Context()); ri != nil {
				ri.source = "forwarded:" + owner
			}
			return true
		}
		s.forwardFallbacks.Add(1)
		s.log.Warn("fleet peer unreachable; trying next owner",
			"key", key, "peer", owner, "error", err)
	}
	// Serving locally (own rank reached, or every better-ranked peer was
	// unreachable): restore what the forward attempts may have disturbed.
	w.Header().Set(fleet.ServedByHeader, s.self)
	r.Header.Del(fleet.ForwardedHeader)
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	return false
}
