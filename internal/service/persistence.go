package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"jellyfish/internal/persist"
	"jellyfish/internal/telemetry"
)

// Durable job store plumbing. The journal holds one JSON record per
// state transition; a snapshot (written every snapshotEvery records)
// subsumes the journal and truncates it. Result and event-stream bytes
// live outside both, in content-addressed blobs — the journal and
// snapshot reference them by digest, which keeps records small and makes
// replay cheap. Because job results are pure functions of their request
// (the service-wide determinism guarantee), re-running an interrupted
// job after a crash reproduces the exact bytes a completed run would
// have stored; durability only has to preserve *intent* (the submit
// record), not progress. See DESIGN.md §14 for the full format and the
// replay-determinism argument.

// Journal record kinds.
const (
	recSubmit = "submit"
	recDone   = "done"
	recEvict  = "evict"
)

// persistedError journals an apiError with its HTTP status, which the
// in-memory type deliberately omits from client-facing JSON.
type persistedError struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func toPersistedError(e *apiError) *persistedError {
	if e == nil {
		return nil
	}
	return &persistedError{Status: e.Status, Code: e.Code, Message: e.Message}
}

func (pe *persistedError) toAPIError() *apiError {
	if pe == nil {
		return nil
	}
	return &apiError{Status: pe.Status, Code: pe.Code, Message: pe.Message}
}

// jobRecord is one journal entry. Kind selects which fields are
// meaningful: submit carries the request envelope, done the terminal
// state and blob digests, evict just the id.
type jobRecord struct {
	Kind string `json:"kind"`
	persistedJob
}

// persistedJob is a job's durable view: the submit envelope plus, once
// terminal, the done fields. It is the body of every journal record, the
// snapshot entry, and the replay accumulator; empty fields are omitted,
// so each record kind carries only its own.
type persistedJob struct {
	ID      string          `json:"id"`
	Seq     int             `json:"seq,omitempty"`
	Type    string          `json:"type,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
	Created string          `json:"created,omitempty"`

	Status       string          `json:"status,omitempty"`
	Started      string          `json:"started,omitempty"`
	Finished     string          `json:"finished,omitempty"`
	Error        *persistedError `json:"error,omitempty"`
	ResultDigest string          `json:"resultDigest,omitempty"`
	EventsDigest string          `json:"eventsDigest,omitempty"`
}

// A terminal is a finished job's state: what its done record and its
// snapshot entry persist, and what publishing makes visible. The trace
// is published but never persisted.
type terminal struct {
	status            string
	started, finished time.Time
	err               *apiError
	result            []byte
	events            [][]byte
	trace             *telemetry.Trace
}

// persistTerminal writes t's result and event-stream blobs and fills
// pj's terminal fields from t. Blobs land before any record that
// references them, so a crash in between leaves only unreferenced blobs
// (collected at the next snapshot), never a dangling digest. Caller
// holds pmu.
func (js *jobStore) persistTerminal(pj *persistedJob, t *terminal) error {
	pj.Status = t.status
	pj.Started = formatTime(t.started)
	pj.Finished = formatTime(t.finished)
	pj.Error = toPersistedError(t.err)
	var err error
	if pj.ResultDigest, err = putOptionalBlob(js.store, t.result); err != nil {
		return err
	}
	pj.EventsDigest, err = putOptionalBlob(js.store, encodeEvents(t.events))
	return err
}

// snapshotDoc is the snapshot file: everything needed to rebuild the
// job store without the journal.
type snapshotDoc struct {
	Seq     int            `json:"seq"`
	Evicted []string       `json:"evicted,omitempty"`
	Jobs    []persistedJob `json:"jobs"`
}

// appendRecord journals one record. A write failure is surfaced so
// submit can refuse to acknowledge a job that would vanish on restart —
// and flips the store into degraded (read-only) mode. A later successful
// append is the recovery probe that flips it back (DESIGN.md §16). No-op
// without a store.
func (js *jobStore) appendRecord(rec *jobRecord) *apiError {
	js.pmu.Lock()
	defer js.pmu.Unlock()
	if js.store == nil {
		return nil
	}
	if err := js.store.Append(mustJSON(rec)); err != nil {
		js.enterDegradedUnderPMU(fmt.Sprintf("journaling %s record: %v", rec.Kind, err))
		return &apiError{Status: http.StatusServiceUnavailable, Code: "degraded",
			Message: fmt.Sprintf("journal write failed (%v); serving read-only until writes recover — retry the submission", err)}
	}
	js.appendedUnderPMU()
	return nil
}

// appendedUnderPMU is the tail of every successful append: it advances
// the snapshot cadence, and the append doubles as the degraded-mode
// recovery probe.
func (js *jobStore) appendedUnderPMU() {
	js.appended++
	js.recoverDegradedUnderPMU()
	if js.appended >= js.snapshotEvery {
		js.snapshotUnderPMU()
	}
}

// enterDegradedUnderPMU flips the store into read-only degraded mode
// (idempotent; counts only the healthy→degraded edge).
func (js *jobStore) enterDegradedUnderPMU(reason string) {
	if !js.degraded.Swap(true) {
		fmt.Printf("jellyfishd: entering degraded mode: %s\n", reason)
		js.tele.degradedFlips.Inc()
		js.tele.degradedState.Set(1)
	}
}

// recoverDegradedUnderPMU clears degraded mode after a successful
// persist write and immediately snapshots the live store. The snapshot
// is what makes recovery lossless: any terminal job whose done record
// failed while degraded is re-persisted here from memory (buildSnapshot
// rewrites every terminal job's blobs and records), so a restart after
// recovery loses no terminal state. If the snapshot itself fails the
// store goes straight back to degraded.
func (js *jobStore) recoverDegradedUnderPMU() {
	if !js.degraded.Swap(false) {
		return
	}
	js.tele.degradedState.Set(0)
	fmt.Printf("jellyfishd: persist writes recovered; snapshotting to re-persist degraded-era terminal jobs\n")
	if err := js.snapshotUnderPMU(); err != nil {
		js.enterDegradedUnderPMU(fmt.Sprintf("recovery snapshot: %v", err))
	}
}

// finish makes a finished execution durable, then visible: under pmu it
// writes the result and event blobs, appends the done record, publishes
// the terminal status, and only then runs the snapshot cadence — so a
// visible terminal status implies a journaled done record, and a
// cadence snapshot never sees the job still running (which would
// truncate its own done record away). Two cases publish without a
// record: a shutdown-interrupted job (durable is false; its bare submit
// record makes the next boot re-run it), and a failed write, which
// flips the store into degraded mode — the job stays servable from
// memory and the recovery snapshot re-persists it once writes come back.
func (js *jobStore) finish(j *job, t terminal, durable bool) {
	js.pmu.Lock()
	defer js.pmu.Unlock()
	j.mu.Lock()
	t.started, t.events = j.started, j.events
	j.mu.Unlock()
	journaled := false
	if durable && js.store != nil {
		rec := &jobRecord{Kind: recDone, persistedJob: persistedJob{ID: j.id}}
		err := js.persistTerminal(&rec.persistedJob, &t)
		if err == nil {
			err = js.store.Append(mustJSON(rec))
		}
		if err != nil {
			fmt.Printf("jellyfishd: persisting job %s: %v\n", j.id, err)
			js.enterDegradedUnderPMU(fmt.Sprintf("persisting job %s: %v", j.id, err))
		}
		journaled = err == nil
	}
	j.mu.Lock()
	j.status, j.finished, j.err, j.result, j.trace = t.status, t.finished, t.err, t.result, t.trace
	j.eventsCh.Broadcast()
	j.mu.Unlock()
	if journaled {
		js.appendedUnderPMU()
	}
}

func formatTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}

func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	return time.Parse(time.RFC3339Nano, s)
}

// putOptionalBlob stores b (empty → no blob, empty digest).
func putOptionalBlob(store *persist.Store, b []byte) (string, error) {
	if len(b) == 0 {
		return "", nil
	}
	return store.PutBlob(b)
}

// encodeEvents packs an event stream into one blob: a JSON array of the
// raw payloads, in emission order.
func encodeEvents(events [][]byte) []byte {
	if len(events) == 0 {
		return nil
	}
	raw := make([]json.RawMessage, len(events))
	for i, e := range events {
		raw[i] = e
	}
	return mustJSON(raw)
}

func decodeEvents(b []byte) ([][]byte, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, err
	}
	events := make([][]byte, len(raw))
	for i, r := range raw {
		events[i] = r
	}
	return events, nil
}

// snapshotUnderPMU writes a snapshot of the live job store, truncates
// the journal, and collects unreferenced blobs. Caller holds pmu (which
// serializes all blob writes, so the GC scan cannot race a PutBlob).
// The returned error covers the snapshot itself; blob-GC failures only
// log (they cost disk, not correctness).
func (js *jobStore) snapshotUnderPMU() error {
	doc, live, err := js.buildSnapshot()
	if err == nil {
		err = js.store.WriteSnapshot(mustJSON(doc))
	}
	if err != nil {
		fmt.Printf("jellyfishd: writing snapshot: %v\n", err)
		return err
	}
	js.appended = 0
	digests, err := js.store.Blobs()
	if err != nil {
		fmt.Printf("jellyfishd: listing blobs for gc: %v\n", err)
		return nil
	}
	for _, d := range digests {
		if !live[d] {
			if err := js.store.RemoveBlob(d); err != nil {
				fmt.Printf("jellyfishd: collecting blob %s: %v\n", d, err)
			}
		}
	}
	return nil
}

// buildSnapshot renders the live store as a snapshotDoc plus the set of
// blob digests it references. Terminal jobs' blobs are (re)written here
// so the snapshot never references a digest the blob store lacks — a
// job published in degraded mode has no blobs of its own yet.
// Shutdown-interrupted jobs (cancelled without clientCancel) snapshot as
// unfinished so the next boot re-runs them. Caller holds pmu.
func (js *jobStore) buildSnapshot() (*snapshotDoc, map[string]bool, error) {
	js.mu.Lock()
	jobs := make([]*job, 0, len(js.jobs))
	for _, j := range js.jobs { //jellyvet:allow determinism -- collected then sorted by id before any use
		jobs = append(jobs, j)
	}
	doc := &snapshotDoc{Seq: js.seq, Evicted: make([]string, 0, len(js.evicted))}
	for id := range js.evicted { //jellyvet:allow determinism -- collected then sorted before any use
		doc.Evicted = append(doc.Evicted, id)
	}
	js.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return olderID(jobs[a].id, jobs[b].id) })
	sort.Slice(doc.Evicted, func(a, b int) bool { return olderID(doc.Evicted[a], doc.Evicted[b]) })

	live := make(map[string]bool)
	for _, j := range jobs {
		j.mu.Lock()
		pj := persistedJob{
			ID:      j.id,
			Seq:     jobSeq(j.id),
			Type:    j.typ,
			Request: j.request,
			Created: formatTime(j.created),
		}
		durableTerminal := terminalStatus(j.status) && (j.status != jobCancelled || j.clientCancel)
		t := terminal{status: j.status, started: j.started, finished: j.finished, err: j.err, result: j.result, events: j.events}
		j.mu.Unlock()
		if durableTerminal {
			if err := js.persistTerminal(&pj, &t); err != nil {
				return nil, nil, err
			}
			live[pj.ResultDigest] = true
			live[pj.EventsDigest] = true
		}
		doc.Jobs = append(doc.Jobs, pj)
	}
	return doc, live, nil
}

// jobSeq recovers the sequence number embedded in a job id ("j%06d").
func jobSeq(id string) int {
	var n int
	fmt.Sscanf(id, "j%d", &n)
	return n
}

// recoverJobs rebuilds the job store from a recovered state: snapshot
// first, then journal records in order. Finished jobs come back with
// their result and event bytes loaded from blob storage; unfinished jobs
// (queued, running, or shutdown-interrupted at the crash) are re-planned
// and re-launched through the exact submit execution path, so the
// determinism guarantee makes their eventual results byte-identical to
// an uninterrupted run. Corruption — unknown record kinds, missing
// blobs, unparsable documents — fails loudly rather than guessing.
func (js *jobStore) recoverJobs(sched *scheduler, state persist.RecoveredState) error {
	byID := make(map[string]*persistedJob)
	evicted := make(map[string]bool)
	maxSeq := 0
	if len(state.Snapshot) > 0 {
		var doc snapshotDoc
		if err := json.Unmarshal(state.Snapshot, &doc); err != nil {
			return fmt.Errorf("parsing snapshot: %w", err)
		}
		maxSeq = doc.Seq
		for _, id := range doc.Evicted {
			evicted[id] = true
		}
		for i := range doc.Jobs {
			pj := doc.Jobs[i]
			byID[pj.ID] = &pj
		}
	}
	for i, raw := range state.Records {
		var rec jobRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("parsing journal record %d: %w", i, err)
		}
		switch rec.Kind {
		case recSubmit:
			pj := rec.persistedJob
			byID[rec.ID] = &pj
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		case recDone:
			pj, ok := byID[rec.ID]
			if !ok {
				// A job can be evicted (terminal in memory) before its
				// done record lands; the late record is then harmless.
				if evicted[rec.ID] {
					continue
				}
				return fmt.Errorf("journal record %d: done for unknown job %s", i, rec.ID)
			}
			pj.Status = rec.Status
			pj.Started = rec.Started
			pj.Finished = rec.Finished
			pj.Error = rec.Error
			pj.ResultDigest = rec.ResultDigest
			pj.EventsDigest = rec.EventsDigest
		case recEvict:
			delete(byID, rec.ID)
			evicted[rec.ID] = true
		default:
			return fmt.Errorf("journal record %d: unknown kind %q — refusing to guess", i, rec.Kind)
		}
	}

	ids := make([]string, 0, len(byID))
	for id := range byID { //jellyvet:allow determinism -- collected then sorted by id before any use
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return olderID(ids[a], ids[b]) })

	js.mu.Lock()
	js.seq = maxSeq
	for id := range evicted { //jellyvet:allow determinism -- set copy; order-free
		js.evicted[id] = true
	}
	js.mu.Unlock()

	for _, id := range ids {
		pj := byID[id]
		j, restart, err := js.rebuildJob(pj)
		if err != nil {
			return err
		}
		js.mu.Lock()
		js.jobs[j.id] = j
		js.mu.Unlock()
		if restart != nil {
			js.start(sched, j, restart, j.runCtx)
		}
	}
	return nil
}

// rebuildJob turns a persisted view back into a live job. For terminal
// jobs the returned plan is nil; otherwise the job must be started with
// the returned plan. A persisted request that no longer plans cleanly
// comes back as a failed job rather than poisoning recovery: the store
// survives, the job reports the planning error.
func (js *jobStore) rebuildJob(pj *persistedJob) (*job, *plan, error) {
	created, err := parseTime(pj.Created)
	if err != nil {
		return nil, nil, fmt.Errorf("job %s: parsing created time: %w", pj.ID, err)
	}
	started, err := parseTime(pj.Started)
	if err != nil {
		return nil, nil, fmt.Errorf("job %s: parsing started time: %w", pj.ID, err)
	}
	finished, err := parseTime(pj.Finished)
	if err != nil {
		return nil, nil, fmt.Errorf("job %s: parsing finished time: %w", pj.ID, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := newJob(pj.ID, pj.Type, pj.Request, cancel)
	j.created = created
	j.runCtx = ctx

	if pj.Status != "" {
		if !terminalStatus(pj.Status) {
			return nil, nil, fmt.Errorf("job %s: persisted with non-terminal status %q", pj.ID, pj.Status)
		}
		j.status = pj.Status
		j.started = started
		j.finished = finished
		j.err = pj.Error.toAPIError()
		j.clientCancel = pj.Status == jobCancelled
		if pj.ResultDigest != "" {
			if j.result, err = js.store.GetBlob(pj.ResultDigest); err != nil {
				return nil, nil, fmt.Errorf("job %s: loading result blob: %w", pj.ID, err)
			}
		}
		if pj.EventsDigest != "" {
			blob, err := js.store.GetBlob(pj.EventsDigest)
			if err != nil {
				return nil, nil, fmt.Errorf("job %s: loading events blob: %w", pj.ID, err)
			}
			if j.events, err = decodeEvents(blob); err != nil {
				return nil, nil, fmt.Errorf("job %s: decoding events blob: %w", pj.ID, err)
			}
		}
		close(j.done)
		return j, nil, nil
	}

	p, aerr := planJob(&JobSpec{Type: pj.Type, Request: pj.Request})
	if aerr != nil {
		j.status = jobFailed
		j.err = aerr
		close(j.done)
		return j, nil, nil
	}
	return j, p, nil
}
