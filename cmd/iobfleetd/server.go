package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"wiban/internal/obs"
	"wiban/internal/sweep"
	"wiban/internal/telemetry"
)

// newMux wires the daemon's HTTP surface:
//
//	GET    /healthz                   readiness: 200 while accepting work, 503 once draining
//	GET    /metrics                   Prometheus text exposition
//	POST   /api/sweeps                submit a sweep (sweep.Spec JSON) → 202 + state
//	GET    /api/sweeps                all sweeps, submission order
//	GET    /api/sweeps/{id}           one sweep's state
//	DELETE /api/sweeps/{id}           cancel: queued unqueues, running checkpoints-and-parks
//	GET    /api/sweeps/{id}/progress  NDJSON stream riding the block-commit tick
//	POST   /api/backends              register (or heartbeat) a backend {"url": ...}
//	GET    /api/backends              the membership table with per-entry liveness
//	DELETE /api/backends?url=...      deregister a backend
//	POST   /api/loads                 shard protocol: gather a wearer range's offered loads
//	GET    /api/sweeps/{id}/store     shard protocol: committed store bytes from an offset, state in headers;
//	                                  ?wait holds the answer until the next commit or status change
//	GET    /api/sweeps/{id}/shards/{k}/store  coordinator's partial shard copy (seed store)
//	GET    /debug/pprof/...           Go profiling endpoints
func newMux(m *manager, reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Health is readiness, not liveness: a draining daemon 503s POSTs,
		// so it must 503 here too — "healthy but refuses work" would
		// mislead a load balancer or a benchmark waiting for readiness.
		if m.isDraining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("POST /api/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec sweep.Spec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, "bad sweep spec: "+err.Error())
			return
		}
		st, err := m.submit(spec)
		switch {
		case errors.Is(err, errDrained):
			httpError(w, http.StatusServiceUnavailable, "draining; resubmit to the next process")
		case errors.Is(err, errQueueFull):
			httpError(w, http.StatusServiceUnavailable, err.Error()+"; retry later or elsewhere")
		case errors.Is(err, errPersist):
			httpError(w, http.StatusInternalServerError, err.Error())
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusAccepted, st)
		}
	})
	mux.HandleFunc("GET /api/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.list())
	})
	mux.HandleFunc("GET /api/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		sw, ok := m.get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such sweep")
			return
		}
		writeJSON(w, http.StatusOK, sw.snapshot())
	})
	mux.HandleFunc("DELETE /api/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		// Cancellation works on a draining daemon too: a DELETE racing a
		// SIGTERM should still park the sweep terminally rather than let
		// the next process resume work nobody wants.
		st, err := m.cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, errNoSweep):
			httpError(w, http.StatusNotFound, "no such sweep")
		case errors.Is(err, errTerminal):
			httpError(w, http.StatusConflict, "sweep already "+st.Status)
		case err != nil:
			httpError(w, http.StatusInternalServerError, err.Error())
		default:
			writeJSON(w, http.StatusOK, st)
		}
	})
	mux.HandleFunc("POST /api/backends", func(w http.ResponseWriter, r *http.Request) {
		// Registration doubles as the heartbeat. A draining coordinator
		// refuses: it is about to exit, and the backend's next beat will
		// land on the restarted process (which reloads the persisted table
		// anyway).
		if m.isDraining() {
			httpError(w, http.StatusServiceUnavailable, "draining; re-register with the next process")
			return
		}
		var reg struct {
			URL string `json:"url"`
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&reg); err != nil {
			httpError(w, http.StatusBadRequest, "bad registration: "+err.Error())
			return
		}
		ms, err := m.members.register(reg.URL)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, ms)
	})
	mux.HandleFunc("GET /api/backends", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.members.list())
	})
	mux.HandleFunc("DELETE /api/backends", func(w http.ResponseWriter, r *http.Request) {
		if !m.members.deregister(r.URL.Query().Get("url")) {
			httpError(w, http.StatusNotFound, "no such backend")
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /api/sweeps/{id}/progress", func(w http.ResponseWriter, r *http.Request) {
		sw, ok := m.get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such sweep")
			return
		}
		streamProgress(w, r, sw)
	})
	mux.HandleFunc("POST /api/loads", func(w http.ResponseWriter, r *http.Request) {
		// The shard protocol's loads round: gather the spec's wearer range's
		// offered loads (and, in feedback mode, its members) and return them
		// for the coordinator to merge. Pure computation — no sweep state is
		// created — but a draining daemon still refuses so coordinators
		// rotate away before the process exits mid-gather.
		if m.isDraining() {
			httpError(w, http.StatusServiceUnavailable, "draining; ask another backend")
			return
		}
		var spec sweep.Spec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, "bad sweep spec: "+err.Error())
			return
		}
		if err := spec.Normalize(); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if spec.Cells <= 0 {
			httpError(w, http.StatusBadRequest, "loads gather on an uncoupled spec")
			return
		}
		f, _, err := spec.Build()
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		f.Stats = m.stats
		loads, members, err := f.GatherLoads()
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, loadsResponse{Loads: loads.Export(), Members: members})
	})
	mux.HandleFunc("GET /api/sweeps/{id}/store", func(w http.ResponseWriter, r *http.Request) {
		// The shard protocol's replication feed and a coordinator's whole
		// poll answer: the store's committed bytes from ?from= (default 0)
		// to the checkpoint, plus the sweep's state in headers. Safe against
		// a live writer — the checkpoint bounds the read, and committed
		// bytes never change — and never serves the trailing index frame,
		// which lies past the final checkpoint by design. A sweep with no
		// committed store yet serves an empty range at next wearer -1.
		sw, ok := m.get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such sweep")
			return
		}
		from := int64(0)
		if q := r.URL.Query().Get("from"); q != "" {
			var err error
			if from, err = strconv.ParseInt(q, 10, 64); err != nil || from < 0 {
				httpError(w, http.StatusBadRequest, "bad from offset")
				return
			}
		}
		// ?wait makes the request a long-poll: while the sweep is queued or
		// running and nothing is committed past from, the answer is held
		// until the next publish (every block commit, after its checkpoint,
		// and every status change), the drain, the client leaving, or
		// storeHold. The subscription comes before the reads, so a commit
		// landing between them still wakes the hold.
		var sub chan progressEvent
		drain := m.drain
		if r.URL.Query().Has("wait") {
			if m.isDraining() {
				// Already draining: hold like any other request. Answered at
				// once, a supervisor's re-poll would spin until the listener
				// closes.
				drain = nil
			}
			sub = sw.subscribe()
			defer sw.unsubscribe(sub)
			<-sub // subscribe's current-state event; the reads below supersede it
		}
		st, off, next := m.storeState(sw)
		if sub != nil && from >= off && (st.Status == statusQueued || st.Status == statusRunning) {
			hold := time.NewTimer(storeHold)
			defer hold.Stop()
			select {
			case <-sub:
			case <-drain:
			case <-hold.C:
			case <-r.Context().Done():
				return
			}
			st, off, next = m.storeState(sw)
		}
		from = min(from, off) // nothing new serves an empty range, not an error
		var f *os.File
		if from < off {
			var err error
			if f, err = os.Open(m.storePath(st.ID)); err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
			defer f.Close()
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		// The process nonce: a coordinator polling a shard sub-sweep reads
		// a changed instance as "this backend died and came back", however
		// briefly the blink lasted.
		h.Set("X-Iobfleetd-Instance", m.instance)
		h.Set("X-Sweep-Status", st.Status)
		if st.Status == statusFailed {
			h.Set("X-Sweep-Error", st.Error)
		}
		h.Set("X-Committed-Offset", strconv.FormatInt(off, 10))
		h.Set("X-Next-Wearer", strconv.Itoa(next))
		h.Set("Content-Length", strconv.FormatInt(off-from, 10))
		if f != nil {
			io.Copy(w, io.NewSectionReader(f, from, off-from))
		}
	})
	mux.HandleFunc("GET /api/sweeps/{id}/shards/{k}/store", func(w http.ResponseWriter, r *http.Request) {
		// The coordinator's partial copy of shard k's store — the seed a
		// replacement backend resumes from. Served whole and unvalidated:
		// the receiver's scan-resume truncates any torn tail.
		sw, ok := m.get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such sweep")
			return
		}
		k, err := strconv.Atoi(r.PathValue("k"))
		if err != nil || k < 0 {
			httpError(w, http.StatusBadRequest, "bad shard index")
			return
		}
		f, err := os.Open(m.shardPath(sw.snapshot().ID, k))
		if err != nil {
			httpError(w, http.StatusNotFound, "no partial store for this shard")
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		io.Copy(w, f)
	})
	// pprof must be mounted by hand: the stdlib's init() registers on
	// http.DefaultServeMux, which this daemon deliberately does not serve.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// storeHold bounds a ?wait store poll that has nothing new to say: long
// enough that a healthy shard's supervisor learns of each commit when it
// lands rather than on a timer, short enough that the supervisor still
// checks its steal deadline several times a second.
const storeHold = 250 * time.Millisecond

// storeState reads what a store-feed answer reports: the sweep's state,
// then its store's committed offset and next wearer (0 and -1 before the
// first commit). State before store: a final commit landing between the
// two reads then shows as running with a complete store (the next poll
// sees done), never as done with a store short of the range end.
func (m *manager) storeState(sw *job) (sweepState, int64, int) {
	st := sw.snapshot()
	_, off, next, err := telemetry.Committed(m.storePath(st.ID))
	if err != nil {
		return st, 0, -1
	}
	return st, off, next
}

// streamProgress serves one sweep's NDJSON progress stream: the current
// state immediately, then one line per committed telemetry block (and
// per status change), flushed as they happen. The stream ends with a
// line carrying "final": true when the sweep reaches a resting state —
// done, failed, or interrupted by a drain — or when the client leaves.
// Intermediate ticks are lossy under a slow reader (each line is a full
// snapshot, so the newest supersedes anything shed); the final line is
// guaranteed.
func streamProgress(w http.ResponseWriter, r *http.Request, sw *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sub := sw.subscribe()
	defer sw.unsubscribe(sub)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sub:
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			if ev.Final {
				return
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
