package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"

	"jellyfish/internal/faultinject"
)

// Record framing: an 8-byte header — payload length then CRC32 (IEEE)
// of the payload, both little-endian uint32 — followed by the payload.
// The framing is what lets replay distinguish the two failure modes a
// log can exhibit:
//
//   - a crash-truncated tail (incomplete header, or fewer payload bytes
//     than the header promises): the normal kill -9 case. Replay drops
//     the partial record and recovers the complete-record prefix —
//     truncation can only remove a suffix of what was appended, so every
//     byte before the cut is exactly as written;
//   - a complete record whose payload fails its checksum: damage that
//     cannot be explained by truncation. Replay fails loudly with a
//     *CorruptLogError rather than ever accepting a damaged record.
const recordHeaderLen = 8

// A CorruptLogError reports a journal record whose payload does not
// match its checksum — damage replay refuses to paper over.
type CorruptLogError struct {
	Path   string
	Offset int64
}

func (e *CorruptLogError) Error() string {
	return fmt.Sprintf("persist: corrupt record at %s offset %d: payload checksum mismatch", e.Path, e.Offset)
}

// ReplayLog reads every complete record of the log at path, returning
// the records and the byte offset where the clean prefix ends (the
// append position after truncating a partial tail). A missing file
// replays as empty. A checksum mismatch returns a *CorruptLogError.
func ReplayLog(path string) ([][]byte, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("persist: reading journal: %w", err)
	}
	var recs [][]byte
	off := int64(0)
	for int64(len(data))-off >= recordHeaderLen {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if int64(len(data))-off-recordHeaderLen < n {
			break // truncated tail: header promises more bytes than exist
		}
		payload := data[off+recordHeaderLen : off+recordHeaderLen+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, 0, &CorruptLogError{Path: path, Offset: off}
		}
		// Detach from the read buffer: records outlive this call.
		recs = append(recs, append([]byte(nil), payload...))
		off += recordHeaderLen + n
	}
	return recs, off, nil
}

// A Log is an append-only record log open for writing. Not safe for
// concurrent use.
type Log struct {
	path string
	f    *os.File
	buf  []byte // frame assembly scratch, reused across appends
}

// OpenLog replays the log at path (see ReplayLog), truncates any
// partial tail, and opens it positioned for appending.
func OpenLog(path string) (*Log, [][]byte, error) {
	recs, off, err := ReplayLog(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: opening journal: %w", err)
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("persist: truncating partial tail: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("persist: seeking journal: %w", err)
	}
	return &Log{path: path, f: f}, recs, nil
}

// Append frames payload and writes it in a single syscall, so a record
// is either absent, partially present (crash mid-write — dropped on
// replay), or complete. The bytes reach the kernel before Append
// returns; they are not fsynced (see the package durability model).
func (l *Log) Append(payload []byte) error {
	need := recordHeaderLen + len(payload)
	if cap(l.buf) < need {
		l.buf = make([]byte, 0, need*2)
	}
	b := l.buf[:need]
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(payload))
	copy(b[recordHeaderLen:], payload)
	if faultinject.Enabled() {
		if f, ok := faultinject.Hit("persist.append"); ok && f.Err != nil {
			if f.ShortWrite {
				// Torn write: a prefix of the frame lands on disk, as a
				// crash mid-write would leave it. Replay drops it as a
				// truncated tail; the degraded-mode recovery snapshot
				// resets the journal before any record after the tear
				// would matter.
				l.f.Write(b[:need/2])
			}
			return fmt.Errorf("persist: appending record: %w", f.Err)
		}
	}
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("persist: appending record: %w", err)
	}
	return nil
}

// Reset truncates the log to empty (after its records were subsumed by
// a snapshot) and syncs the truncation.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("persist: resetting journal: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("persist: resetting journal: %w", err)
	}
	return l.f.Sync()
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
