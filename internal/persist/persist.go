// Package persist is jellyfishd's crash-safe on-disk state store: an
// append-only record log with checksummed framing, an atomically
// replaced snapshot, and a content-addressed blob store for result
// documents (DESIGN.md §14).
//
// The package is deliberately policy-free: records and the snapshot are
// opaque byte payloads whose semantics (job envelopes, the job-table
// snapshot) live in internal/service. What persist owns is the
// durability discipline:
//
//   - every record is framed with its length and CRC32, so replay can
//     tell a crash-truncated tail (dropped silently — the normal kill -9
//     case) from payload corruption (a loud *CorruptLogError — never
//     accept a damaged record as if it were written);
//   - the snapshot is written to a temp file, synced, and renamed over
//     the old one, then the journal is truncated — a crash at any point
//     leaves either the old (snapshot, journal) pair or the new one;
//   - blobs are named by the content digest of their bytes, so a blob
//     file is immutable once written and identical payloads share one
//     file.
//
// Durability model: appends reach the kernel on every call (no
// user-space buffering), which makes the store proof against process
// death — kill -9 included — at any byte. fsync happens on snapshot
// replacement and Close, not per record, so an OS crash or power loss
// can lose the records appended since the last sync. See DESIGN.md §14
// for what the guarantee does and does not cover.
package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"jellyfish/internal/faultinject"
	"jellyfish/internal/telemetry"
)

// The fixed state-directory layout.
const (
	journalName  = "journal.log"
	snapshotName = "snapshot.json"
	blobDirName  = "blobs"
)

// Digest is the content hash used to name blobs: the same truncated
// sha256 convention the service uses for cache keys, so a stored result
// document and its cache identity agree.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// Obs is the store's telemetry bundle (internal/telemetry): append and
// snapshot counts and latencies, fed by the store itself so every
// caller's journal writes are covered. Nil — the default — records
// nothing; all instruments are nil-safe.
type Obs struct {
	Appends     *telemetry.Counter
	Snapshots   *telemetry.Counter
	AppendDur   *telemetry.Histogram
	SnapshotDur *telemetry.Histogram
}

// A Store is one state directory: journal + snapshot + blobs. Methods
// are not safe for concurrent use — the caller (the service's job
// store) serializes access.
type Store struct {
	dir string
	log *Log
	obs *Obs
}

// SetObs attaches a telemetry bundle; call before concurrent use. A nil
// bundle (the default) disables observation.
func (s *Store) SetObs(o *Obs) { s.obs = o }

// RecoveredState is what Open found on disk: the snapshot bytes (nil if
// no snapshot has been written) and every complete journal record
// appended since it.
type RecoveredState struct {
	Snapshot []byte
	Records  [][]byte
}

// Open opens (creating if needed) the state directory and replays its
// journal. A crash-truncated journal tail is discarded; corruption
// fails loudly with a *CorruptLogError.
func Open(dir string) (*Store, RecoveredState, error) {
	if err := os.MkdirAll(filepath.Join(dir, blobDirName), 0o755); err != nil {
		return nil, RecoveredState{}, fmt.Errorf("persist: creating state dir: %w", err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, RecoveredState{}, fmt.Errorf("persist: reading snapshot: %w", err)
		}
		snap = nil
	}
	log, recs, err := OpenLog(filepath.Join(dir, journalName))
	if err != nil {
		return nil, RecoveredState{}, err
	}
	return &Store{dir: dir, log: log}, RecoveredState{Snapshot: snap, Records: recs}, nil
}

// Append appends one record to the journal. The write reaches the
// kernel before Append returns (kill -9 safe); it is not fsynced.
func (s *Store) Append(rec []byte) error {
	if s.obs == nil {
		return s.log.Append(rec)
	}
	t := telemetry.StartTimer()
	err := s.log.Append(rec)
	s.obs.Appends.Inc()
	s.obs.AppendDur.ObserveSince(t)
	return err
}

// WriteSnapshot atomically replaces the snapshot with b and truncates
// the journal: temp file, fsync, rename, directory fsync, then journal
// reset. Replay state afterwards is (b, no records).
func (s *Store) WriteSnapshot(b []byte) error {
	if s.obs != nil {
		t := telemetry.StartTimer()
		defer func() {
			s.obs.Snapshots.Inc()
			s.obs.SnapshotDur.ObserveSince(t)
		}()
	}
	path := filepath.Join(s.dir, snapshotName)
	tmp := path + ".tmp"
	if err := writeFileSynced(tmp, b); err != nil {
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	// Failpoint between the temp write and the rename: the
	// crash-during-snapshot window. The old (snapshot, journal) pair
	// must remain the recoverable state.
	if f, ok := faultinject.Hit("persist.snapshot.rename"); ok && f.Err != nil {
		return fmt.Errorf("persist: installing snapshot: %w", f.Err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: installing snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// Only after the snapshot is durably in place may the journal records
	// it subsumes be dropped.
	return s.log.Reset()
}

// PutBlob stores b under its content digest and returns the digest.
// Blobs are immutable: if the digest already exists the bytes are
// already on disk and the write is skipped.
func (s *Store) PutBlob(b []byte) (string, error) {
	d := Digest(b)
	path := filepath.Join(s.dir, blobDirName, d)
	if _, err := os.Stat(path); err == nil {
		return d, nil
	}
	if f, ok := faultinject.Hit("persist.blob.write"); ok && f.Err != nil {
		return "", fmt.Errorf("persist: writing blob: %w", f.Err)
	}
	if err := writeFileSynced(path+".tmp", b); err != nil {
		return "", fmt.Errorf("persist: writing blob: %w", err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return "", fmt.Errorf("persist: installing blob: %w", err)
	}
	return d, nil
}

// isDigest reports whether d has the form Digest returns: 32 lowercase
// hex digits. Blob names come back from snapshots and journal records,
// so only this form may become a path under the blob directory.
func isDigest(d string) bool {
	if len(d) != 32 {
		return false
	}
	for _, c := range []byte(d) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// GetBlob returns the bytes stored under digest d. A d not of the form
// Digest returns is an error.
func (s *Store) GetBlob(d string) ([]byte, error) {
	if !isDigest(d) {
		return nil, fmt.Errorf("persist: reading blob %q: not a blob digest", d)
	}
	b, err := os.ReadFile(filepath.Join(s.dir, blobDirName, d))
	if err != nil {
		return nil, fmt.Errorf("persist: reading blob %s: %w", d, err)
	}
	return b, nil
}

// Blobs lists the stored blob digests in sorted order, skipping any
// other file in the blob directory (such as an unfinished write).
func (s *Store) Blobs() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, blobDirName))
	if err != nil {
		return nil, fmt.Errorf("persist: listing blobs: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && isDigest(e.Name()) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// RemoveBlob deletes the blob stored under digest d (garbage collection
// after its last referencing job is evicted). Removing a missing blob
// is not an error; a d not of the form Digest returns is.
func (s *Store) RemoveBlob(d string) error {
	if !isDigest(d) {
		return fmt.Errorf("persist: removing blob %q: not a blob digest", d)
	}
	err := os.Remove(filepath.Join(s.dir, blobDirName, d))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: removing blob %s: %w", d, err)
	}
	return nil
}

// Close syncs and closes the journal.
func (s *Store) Close() error { return s.log.Close() }

// writeFileSynced writes b to path and fsyncs it before closing.
func writeFileSynced(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: opening dir for sync: %w", err)
	}
	err = f.Sync()
	f.Close()
	if err != nil {
		return fmt.Errorf("persist: syncing dir: %w", err)
	}
	return nil
}
