package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testRecords builds a deterministic set of variably sized payloads,
// including empty and binary ones, so frame boundaries land at many
// different alignments.
func testRecords() [][]byte {
	recs := [][]byte{
		[]byte(`{"kind":"submit","id":"j000001"}`),
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0x00, 0xff, 0x7f}, 33),
	}
	for i := 0; i < 8; i++ {
		recs = append(recs, bytes.Repeat([]byte{byte('a' + i)}, 7*i+5))
	}
	return recs
}

func writeLog(t *testing.T, path string, recs [][]byte) {
	t.Helper()
	l, prior, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh log replayed %d records", len(prior))
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	recs := testRecords()
	writeLog(t, path, recs)
	got, _, err := ReplayLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], recs[i])
		}
	}
}

// The crash-recovery property, checked exhaustively: a log truncated at
// EVERY byte boundary either replays cleanly to exactly the prefix of
// records whose complete frames survived, or — never — accepts a
// partial record. Truncation is the only damage kill -9 can inflict
// (appends are sequential), so clean recovery must hold at all offsets.
func TestReplayTruncatedAtEveryByteBoundary(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "journal.log")
	recs := testRecords()
	writeLog(t, full, recs)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// frameEnd[i] is the byte offset at which record i's frame completes.
	frameEnd := make([]int64, len(recs))
	off := int64(0)
	for i, r := range recs {
		off += recordHeaderLen + int64(len(r))
		frameEnd[i] = off
	}
	if off != int64(len(data)) {
		t.Fatalf("frame accounting: %d != file size %d", off, len(data))
	}

	trunc := filepath.Join(dir, "trunc.log")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, cleanOff, err := ReplayLog(trunc)
		if err != nil {
			t.Fatalf("cut %d: replay failed on pure truncation: %v", cut, err)
		}
		wantN := 0
		for wantN < len(recs) && frameEnd[wantN] <= int64(cut) {
			wantN++
		}
		if len(got) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), wantN)
		}
		for i := 0; i < wantN; i++ {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("cut %d: record %d differs after recovery", cut, i)
			}
		}
		var wantOff int64
		if wantN > 0 {
			wantOff = frameEnd[wantN-1]
		}
		if cleanOff != wantOff {
			t.Fatalf("cut %d: clean offset %d, want %d", cut, cleanOff, wantOff)
		}
		// OpenLog on the truncated file must drop the tail and keep
		// appending from the record boundary.
		l, replayed, err := OpenLog(trunc)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(replayed) != wantN {
			t.Fatalf("cut %d: reopen replayed %d records, want %d", cut, len(replayed), wantN)
		}
		if err := l.Append([]byte("post-crash")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		again, _, err := ReplayLog(trunc)
		if err != nil || len(again) != wantN+1 || string(again[wantN]) != "post-crash" {
			t.Fatalf("cut %d: append after recovery broken: %d records, err %v", cut, len(again), err)
		}
	}
}

// Corruption — a bit flip inside a complete record's payload — must
// fail loudly, not replay as if the damaged bytes were written.
func TestReplayCorruptPayloadFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.log")
	recs := testRecords()
	writeLog(t, path, recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle record (records 0..3 are tiny;
	// record 5 starts after 4 frames — compute its payload offset).
	off := int64(0)
	for i := 0; i < 5; i++ {
		off += recordHeaderLen + int64(len(recs[i]))
	}
	corruptAt := off + recordHeaderLen // first payload byte of record 5
	data[corruptAt] ^= 0x01
	bad := filepath.Join(dir, "bad.log")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReplayLog(bad)
	var cerr *CorruptLogError
	if !errors.As(err, &cerr) {
		t.Fatalf("corrupted payload replayed with err %v, want *CorruptLogError", err)
	}
	if cerr.Offset != off {
		t.Fatalf("corruption reported at offset %d, want %d", cerr.Offset, off)
	}
	if _, _, err := OpenLog(bad); !errors.As(err, &cerr) {
		t.Fatalf("OpenLog accepted a corrupt journal: %v", err)
	}
}

func TestStoreSnapshotSubsumesJournal(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh store recovered %+v", rec)
	}
	for i := 0; i < 5; i++ {
		if err := st.Append([]byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot([]byte(`{"snap":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if string(rec2.Snapshot) != `{"snap":1}` {
		t.Fatalf("snapshot = %q", rec2.Snapshot)
	}
	if len(rec2.Records) != 1 || string(rec2.Records[0]) != "after" {
		t.Fatalf("post-snapshot records = %q", rec2.Records)
	}
}

func TestStoreBlobs(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := []byte(`{"result":1}`)
	d1, err := st.PutBlob(a)
	if err != nil {
		t.Fatal(err)
	}
	// Content addressing: same bytes, same digest, no second file.
	d2, err := st.PutBlob(a)
	if err != nil || d2 != d1 {
		t.Fatalf("re-put digest %s err %v, want %s", d2, err, d1)
	}
	if d1 != Digest(a) {
		t.Fatalf("blob digest %s != Digest %s", d1, Digest(a))
	}
	got, err := st.GetBlob(d1)
	if err != nil || !bytes.Equal(got, a) {
		t.Fatalf("GetBlob = %q, %v", got, err)
	}
	d3, err := st.PutBlob([]byte("other"))
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.Blobs()
	if err != nil || len(names) != 2 {
		t.Fatalf("Blobs = %v, %v", names, err)
	}
	if err := st.RemoveBlob(d3); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveBlob(d3); err != nil {
		t.Fatalf("removing a missing blob: %v", err)
	}
	if names, _ = st.Blobs(); len(names) != 1 || names[0] != d1 {
		t.Fatalf("after GC: %v", names)
	}
	if _, err := st.GetBlob(d3); err == nil {
		t.Fatal("removed blob still readable")
	}
}

// Blob names come back from snapshots and journal records: any name not
// of Digest's form is refused before it becomes a path, so a recorded
// "../../outside.txt" cannot read or delete a file outside the store,
// and stray files in the blob directory are not listed as blobs.
func TestStoreRefusesNonDigestBlobNames(t *testing.T) {
	root := t.TempDir()
	outside := filepath.Join(root, "outside.txt")
	if err := os.WriteFile(outside, []byte("not a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := Open(filepath.Join(root, "state"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d, err := st.PutBlob([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "state", "blobs", "stray.tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../../outside.txt", "", "stray.tmp", strings.ToUpper(d), d + "0", d[:31] + "g"} {
		if b, err := st.GetBlob(name); err == nil {
			t.Errorf("GetBlob(%q) = %q, want an error", name, b)
		}
		if err := st.RemoveBlob(name); err == nil {
			t.Errorf("RemoveBlob(%q) succeeded, want an error", name)
		}
	}
	if _, err := os.Stat(outside); err != nil {
		t.Fatalf("the file outside the store is gone: %v", err)
	}
	if names, err := st.Blobs(); err != nil || len(names) != 1 || names[0] != d {
		t.Fatalf("Blobs = %v, %v; want [%s]", names, err, d)
	}
}
