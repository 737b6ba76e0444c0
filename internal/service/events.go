package service

import (
	"fmt"
	"net/http"

	"jellyfish/internal/faultinject"
)

// Streaming job progress. GET /v1/jobs/{id}/events serves the job's
// progress stream as Server-Sent Events: one "progress" frame per
// emitted payload (per-probe for capacity searches, per-trial for
// evaluations, per-step for what-if chains; see the event types in
// api.go), then a terminal "done" frame carrying the final status.
//
// Determinism: the payload bytes and their order are covered by the
// service-wide guarantee — same request ⇒ identical frame sequence
// regardless of worker count, cache state, live tailing vs post-hoc
// replay, or a daemon restart in between (streams are persisted with
// results). The SSE envelope carries no ids, timestamps, or retry
// hints, so the whole response body is reproducible byte-for-byte
// (asserted in stream_test.go).

// handleJobEvents tails a job's event stream. Connecting after the job
// finished replays the full stream; connecting mid-run streams live and
// the frames are identical either way.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, aerr := s.jobs.get(r.PathValue("id"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, &apiError{Status: http.StatusInternalServerError, Code: "internal",
			Message: "response writer does not support streaming"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.tele.sseSubs.Inc()
	defer s.tele.sseSubs.Dec()

	// A disconnected client must wake the cond-wait below; the watcher
	// broadcasts once and exits when the request context ends (which
	// also happens when this handler returns).
	//jellyvet:allow determinism -- disconnect watcher; never touches response bytes
	go func() {
		<-r.Context().Done()
		j.mu.Lock()
		j.eventsCh.Broadcast()
		j.mu.Unlock()
	}()

	next := 0
	for {
		j.mu.Lock()
		for next >= len(j.events) && !terminalStatus(j.status) && r.Context().Err() == nil {
			j.eventsCh.Wait()
		}
		pending := j.events[next:]
		next = len(j.events)
		status := j.status
		j.mu.Unlock()
		if r.Context().Err() != nil {
			return
		}
		for _, e := range pending {
			if faultinject.Enabled() {
				// Chaos site: a failed frame write drops the connection
				// mid-stream, exercising the same path as a vanished
				// client. The stream replays in full on reconnect.
				if f, failed := faultinject.Hit("sse.write"); failed && f.Err != nil {
					return
				}
			}
			fmt.Fprintf(w, "event: progress\ndata: %s\n\n", e)
		}
		// Appends happen-before the terminal transition, so a terminal
		// status observed in the same critical section as the pending
		// slice means the stream above is complete.
		if terminalStatus(status) {
			fmt.Fprintf(w, "event: done\ndata: {\"status\":%q}\n\n", status)
			fl.Flush()
			return
		}
		fl.Flush()
	}
}

// handleJobResult serves a succeeded job's result document verbatim —
// the exact bytes the matching sync endpoint would produce, with no job
// envelope around them, so clients (and the CI kill-and-recover smoke)
// can compare the two responses byte-for-byte.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, aerr := s.jobs.get(r.PathValue("id"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	j.mu.Lock()
	status := j.status
	result := j.result
	jerr := j.err
	j.mu.Unlock()
	switch {
	case !terminalStatus(status):
		writeErr(w, &apiError{Status: http.StatusConflict, Code: "not_finished",
			Message: fmt.Sprintf("job is %s; poll GET /v1/jobs/{id} or stream /events until it finishes", status)})
	case status != jobSucceeded:
		if jerr == nil {
			jerr = &apiError{Status: http.StatusConflict, Code: status, Message: "job did not succeed"}
		}
		writeErr(w, jerr)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	}
}
