package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frameRecords frames records the way Append does, written out again
// from the format's description: length, then CRC32 (IEEE) of the
// payload, both little-endian uint32, then the payload.
func frameRecords(recs [][]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(r))
		out = append(out, r...)
	}
	return out
}

// FuzzReplayLog replays arbitrary journal bytes. Replay either fails
// with a *CorruptLogError, which OpenLog repeats, or returns records
// whose framing is exactly the clean prefix data[:off]; OpenLog then
// drops the tail past off, and one Append replays as those records plus
// the new one.
func FuzzReplayLog(f *testing.F) {
	recs := testRecords()
	full := frameRecords(recs)
	f.Add(full)
	f.Add([]byte{})
	f.Add(full[:recordHeaderLen-3])                      // torn first header
	f.Add(full[:recordHeaderLen+len(recs[0])-1])         // torn first payload
	f.Add(full[:len(full)-1])                            // torn last payload
	f.Add(append(frameRecords(recs[:2]), 0xff, 0xff, 0)) // torn header after two frames
	corrupt := bytes.Clone(full)
	corrupt[recordHeaderLen] ^= 0x01 // first payload byte of record 0
	f.Add(corrupt)
	lying := frameRecords(recs[2:3])
	lying[0] = 0xff // header promises more bytes than exist
	f.Add(lying)

	appended := []byte(`{"kind":"fuzz"}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, off, err := ReplayLog(path)
		var cerr *CorruptLogError
		if err != nil {
			if !errors.As(err, &cerr) {
				t.Fatalf("replay error %v is not a *CorruptLogError", err)
			}
			if _, _, err := OpenLog(path); !errors.As(err, &cerr) {
				t.Fatalf("OpenLog accepted a journal replay rejected: %v", err)
			}
			return
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("clean prefix ends at %d, outside the %d-byte journal", off, len(data))
		}
		if framed := frameRecords(got); !bytes.Equal(framed, data[:off]) {
			t.Fatalf("%d replayed records frame to %d bytes that differ from the clean prefix of %d", len(got), len(framed), off)
		}

		l, prior, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(prior) != len(got) {
			t.Fatalf("OpenLog replayed %d records, ReplayLog %d", len(prior), len(got))
		}
		if err := l.Append(appended); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want := append(got, appended)
		if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, frameRecords(want)) {
			t.Fatalf("journal after append is not the framing of its records (read error %v)", err)
		}
		again, _, err := ReplayLog(path)
		if err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		if len(again) != len(want) {
			t.Fatalf("replay after append: %d records, want %d", len(again), len(want))
		}
		for i := range want {
			if !bytes.Equal(again[i], want[i]) {
				t.Fatalf("replay after append: record %d = %q, want %q", i, again[i], want[i])
			}
		}
	})
}
