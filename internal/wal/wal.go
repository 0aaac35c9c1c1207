// Package wal is the shared durable log under both the jobs store and
// the stream WAL: an append-only file of length-prefixed, CRC32C-framed
// records behind a versioned header. The jobs and stream packages are
// thin typed codecs over this one implementation, so every durability
// property — torn-tail repair, corruption detection, atomic compaction,
// fault-injectable I/O — is built (and tortured) exactly once.
//
// # Frame format
//
// A log file is an 8-byte header followed by zero or more frames:
//
//	header:  "DWAL" | version u16 LE | 2 reserved bytes (zero)
//	frame:   length u32 LE | payloadCRC u32 LE | headerCRC u32 LE | payload
//
// payloadCRC is CRC32C (Castagnoli) of the payload; headerCRC is CRC32C
// of the first 8 bytes (length ‖ payloadCRC). The header CRC is what
// makes the length field trustworthy: without it, a bit flip in the
// length byte of a mid-log frame would send the reader off the rails and
// be indistinguishable from a torn tail, silently truncating every valid
// frame after it. With it, replay classifies damage into exactly three
// failure classes:
//
//   - Torn tail: fewer than 12 bytes remain, the remainder is all
//     zeroes (zero-fill crash artifact), or a frame with a valid header
//     claims more bytes than the file holds. This is the expected result
//     of a crash mid-append: the verified prefix is intact, the tail is
//     truncated on the next append, and TornTail() counts it.
//   - Corruption: the header CRC or payload CRC does not match. Replay
//     stops at the verified prefix and returns *ErrCorruptRecord with
//     the file offset — never a silent truncation, because the frames
//     after the flip may be durably acknowledged records. Opt-in
//     Quarantine mode instead sidecars the damaged suffix to
//     <path>.quarantine and keeps the verified prefix live.
//   - Oversized: a frame whose header is valid but whose length exceeds
//     MaxRecordBytes is rejected with *ErrRecordTooLarge (replacing the
//     old 64 MiB bufio.Scanner cliff, which mislabelled big-but-valid
//     records as errors and silently ended replay).
//
// Appends are crash-consistent without a commit record: the log tracks
// the last verified offset, and if an append fails partway (short write,
// ENOSPC) the file is truncated back to that offset before the next
// append, so a failed write can never corrupt the log for later readers.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"sync"

	"deptree/internal/fsx"
)

// Magic is the 4-byte file signature opening every framed log.
const Magic = "DWAL"

// Version is the current on-disk format version.
const Version = 1

// HeaderSize is the byte length of the file header.
const HeaderSize = 8

// FrameHeaderSize is the byte length of each frame's header.
const FrameHeaderSize = 12

// DefaultMaxRecordBytes bounds a single frame's payload (1 GiB). It is a
// sanity limit against garbage length fields surviving the header CRC by
// astronomical luck, not an admission limit — admission belongs to the
// codec layers above.
const DefaultMaxRecordBytes = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNotReplayed is returned by Append before Replay has run: appending
// to an unverified log could write after a torn tail or corruption.
var ErrNotReplayed = errors.New("wal: append before replay")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorruptRecord reports mid-log damage: a frame whose header or
// payload checksum does not match at Offset. The verified prefix
// (every frame before Offset) has already been delivered to the replay
// callback and is intact on disk.
type ErrCorruptRecord struct {
	Path   string
	Offset int64
	Reason string
}

func (e *ErrCorruptRecord) Error() string {
	return fmt.Sprintf("wal: corrupt record in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// ErrRecordTooLarge reports a frame whose valid header claims a payload
// over the configured limit.
type ErrRecordTooLarge struct {
	Path   string
	Offset int64
	Size   int64
	Limit  int64
}

func (e *ErrRecordTooLarge) Error() string {
	return fmt.Sprintf("wal: record in %s at offset %d is %d bytes (limit %d)", e.Path, e.Offset, e.Size, e.Limit)
}

// Options configures Open.
type Options struct {
	// FS is the filesystem the log uses; nil means the real OS.
	FS fsx.FS
	// MaxRecordBytes bounds one frame's payload; 0 means
	// DefaultMaxRecordBytes.
	MaxRecordBytes int64
	// Quarantine makes Replay recover from mid-log corruption instead of
	// returning *ErrCorruptRecord: the unverified suffix is copied to
	// <path>.quarantine, the log is truncated to the verified prefix, and
	// replay succeeds with Quarantined() > 0.
	Quarantine bool
}

// Log is an append-only checksummed record log. It is safe for
// concurrent use.
type Log struct {
	path string
	fs   fsx.FS
	opts Options

	mu            sync.Mutex
	f             fsx.File
	size          int64 // current file size including any unverified tail
	lastGood      int64 // end offset of the last verified frame
	pendingRepair bool  // a failed append left bytes past lastGood
	replayed      bool
	closed        bool
	tornTail      int
	quarantined   int
	migrated      bool
	records       int
}

// Open opens or creates the log at path. A new file gets the versioned
// header immediately (and the parent directory is fsync'd so a crash
// right after creation cannot lose the file). Append refuses to run
// until Replay has verified the existing contents.
func Open(path string, opts Options) (*Log, error) {
	if opts.FS == nil {
		opts.FS = fsx.OS
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = DefaultMaxRecordBytes
	}
	l := &Log{path: path, fs: opts.FS, opts: opts}
	if err := l.fs.MkdirAll(fsx.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", fsx.Dir(path), err)
	}
	created := false
	if _, err := l.fs.Stat(path); errors.Is(err, fs.ErrNotExist) {
		created = true
	}
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	st, err := l.fs.Stat(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	l.f = f
	l.size = st.Size()
	if l.size == 0 {
		if err := l.writeHeaderLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if created {
		if err := l.fs.SyncDir(fsx.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync dir %s: %w", fsx.Dir(path), err)
		}
	}
	return l, nil
}

func (l *Log) writeHeaderLocked() error {
	var hdr [HeaderSize]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek %s: %w", l.path, err)
	}
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: write header %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync header %s: %w", l.path, err)
	}
	l.size = HeaderSize
	l.lastGood = HeaderSize
	return nil
}

// EncodeFrame returns the on-disk encoding of one payload: the 12-byte
// frame header followed by the payload. Exported so tests (and the
// chaos/torture harnesses) can fabricate byte-exact logs, including
// deliberately torn prefixes of a real frame.
func EncodeFrame(payload []byte) []byte {
	buf := make([]byte, FrameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(buf[8:], crc32.Checksum(buf[:8], castagnoli))
	copy(buf[FrameHeaderSize:], payload)
	return buf
}

// EncodeHeader returns the 8-byte file header, for tests building logs
// from raw bytes.
func EncodeHeader() []byte {
	var hdr [HeaderSize]byte
	copy(hdr[:], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	return hdr[:]
}

// scanResult is one classified frame (or terminal condition) from scan.
type scanResult struct {
	payload []byte
	offset  int64
}

// allZero reports whether b is entirely zero bytes — the signature of a
// zero-filled (preallocated or partially-written) crash tail.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// scan walks data (the file content after the 8-byte header has been
// validated), invoking fn for each verified frame. It returns the end
// offset of the verified prefix, whether a torn tail was dropped, and a
// terminal error (*ErrCorruptRecord / *ErrRecordTooLarge) for the other
// failure classes. Offsets are absolute file offsets.
func scan(path string, data []byte, maxRecord int64, fn func(payload []byte, offset int64) error) (verified int64, torn bool, err error) {
	off := int64(HeaderSize)
	rest := data
	for len(rest) > 0 {
		if len(rest) < FrameHeaderSize {
			return off, true, nil
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		payloadCRC := binary.LittleEndian.Uint32(rest[4:8])
		headerCRC := binary.LittleEndian.Uint32(rest[8:12])
		if crc32.Checksum(rest[:8], castagnoli) != headerCRC {
			// The frame header itself is damaged. If everything from here
			// on is zero it is a zero-fill crash artifact — a torn tail,
			// not corruption.
			if allZero(rest) {
				return off, true, nil
			}
			return off, false, &ErrCorruptRecord{Path: path, Offset: off, Reason: "frame header checksum mismatch"}
		}
		if int64(length) > maxRecord {
			return off, false, &ErrRecordTooLarge{Path: path, Offset: off, Size: int64(length), Limit: maxRecord}
		}
		end := FrameHeaderSize + int(length)
		if len(rest) < end {
			// Valid header promising bytes past EOF: the append was cut
			// short by a crash. Torn tail.
			return off, true, nil
		}
		payload := rest[FrameHeaderSize:end]
		if crc32.Checksum(payload, castagnoli) != payloadCRC {
			return off, false, &ErrCorruptRecord{Path: path, Offset: off, Reason: "payload checksum mismatch"}
		}
		if fn != nil {
			if err := fn(payload, off); err != nil {
				return off, false, err
			}
		}
		off += int64(end)
		rest = rest[end:]
	}
	return off, false, nil
}

// Scan verifies the log at path read-only, without opening it for
// appends, invoking fn for each valid frame. It returns the verified
// end offset, whether a torn tail follows it, and the terminal error (a
// typed corruption/oversize error, or nil). fsck is built on this.
func Scan(fsys fsx.FS, path string, maxRecord int64, fn func(payload []byte, offset int64) error) (verified int64, torn bool, err error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	if len(data) == 0 {
		return 0, false, nil
	}
	if len(data) < HeaderSize || string(data[:4]) != Magic {
		if looksLikeJSONL(data) {
			return 0, false, fmt.Errorf("wal: %s is a legacy JSONL log (run with migration enabled, or fsck -repair)", path)
		}
		return 0, false, &ErrCorruptRecord{Path: path, Offset: 0, Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return 0, false, fmt.Errorf("wal: %s has unsupported version %d", path, v)
	}
	return scan(path, data[HeaderSize:], maxRecord, fn)
}

// looksLikeJSONL reports whether data is plausibly a legacy JSONL log:
// first non-empty byte is '{'.
func looksLikeJSONL(data []byte) bool {
	for _, c := range data {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}

// MigrateJSONL converts a legacy JSONL log at path into the framed
// format, atomically (temp file, rename, dir fsync). Each line must be
// valid JSON; an invalid line ends the conversion there, mirroring the
// old torn-tail semantics (legacy logs had no way to distinguish torn
// from corrupt, so the pre-existing behaviour is preserved for them).
// Returns the number of records migrated.
func MigrateJSONL(fsys fsx.FS, path string) (int, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	tmp := path + ".migrate"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: migrate open %s: %w", tmp, err)
	}
	n := 0
	write := func(b []byte) error {
		_, werr := f.Write(b)
		return werr
	}
	err = func() error {
		if err := write(EncodeHeader()); err != nil {
			return err
		}
		rest := data
		for len(rest) > 0 {
			nl := -1
			for i, c := range rest {
				if c == '\n' {
					nl = i
					break
				}
			}
			var line []byte
			if nl < 0 {
				// Unterminated final line: the legacy torn tail. Drop it.
				break
			}
			line, rest = rest[:nl], rest[nl+1:]
			if len(line) == 0 {
				continue
			}
			if !json.Valid(line) {
				// Legacy logs cannot tell torn from corrupt; preserve the
				// old truncate-at-first-bad-line behaviour.
				break
			}
			if err := write(EncodeFrame(line)); err != nil {
				return err
			}
			n++
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("wal: migrate %s: %w", path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return 0, fmt.Errorf("wal: migrate rename %s: %w", path, err)
	}
	if err := fsys.SyncDir(fsx.Dir(path)); err != nil {
		return 0, fmt.Errorf("wal: migrate sync dir: %w", err)
	}
	return n, nil
}

// Replay verifies the log from the start, invoking fn for each valid
// record payload. The payload slice is only valid during the callback.
// On a clean torn tail the file is truncated to the verified prefix and
// replay succeeds (TornTail reports it). On mid-log corruption replay
// returns *ErrCorruptRecord — unless Quarantine is set, in which case
// the damaged suffix is sidecared to <path>.quarantine, the log is
// truncated to the verified prefix, and replay succeeds. A legacy JSONL
// file is migrated to the framed format first (one-shot, atomic).
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		return fmt.Errorf("wal: read %s: %w", l.path, err)
	}
	if looksLikeJSONL(data) {
		// Legacy JSONL log: one-shot migration to the framed format. The
		// open handle keeps pointing at the old inode, so reopen after
		// the rename.
		if _, err := MigrateJSONL(l.fs, l.path); err != nil {
			return err
		}
		l.migrated = true
		if err := l.reopenLocked(); err != nil {
			return err
		}
		data, err = l.fs.ReadFile(l.path)
		if err != nil {
			return fmt.Errorf("wal: read %s: %w", l.path, err)
		}
	}
	if len(data) < HeaderSize || string(data[:4]) != Magic {
		if allZero(data) {
			// Entire file (header included) zero-filled or empty-ish:
			// crash during creation. Rewrite the header and start clean.
			if err := l.writeHeaderLocked(); err != nil {
				return err
			}
			if err := l.f.Truncate(HeaderSize); err != nil {
				return fmt.Errorf("wal: truncate %s: %w", l.path, err)
			}
			l.tornTail++
			l.replayed = true
			l.records = 0
			return nil
		}
		return &ErrCorruptRecord{Path: l.path, Offset: 0, Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return fmt.Errorf("wal: %s has unsupported version %d", l.path, v)
	}
	count := 0
	verified, torn, scanErr := scan(l.path, data[HeaderSize:], l.opts.MaxRecordBytes, func(payload []byte, _ int64) error {
		count++
		if fn != nil {
			return fn(payload)
		}
		return nil
	})
	if scanErr != nil {
		var corrupt *ErrCorruptRecord
		if l.opts.Quarantine && errors.As(scanErr, &corrupt) {
			if err := l.quarantineLocked(data, verified); err != nil {
				return err
			}
			l.quarantined++
		} else {
			return scanErr
		}
	} else if torn {
		l.tornTail++
	}
	if verified < int64(len(data)) {
		if err := l.f.Truncate(verified); err != nil {
			return fmt.Errorf("wal: truncate %s: %w", l.path, err)
		}
	}
	l.size = verified
	l.lastGood = verified
	l.pendingRepair = false
	l.replayed = true
	l.records = count
	return nil
}

// quarantineLocked sidecars the unverified suffix starting at verified
// to <path>.quarantine (appending, so repeated quarantines accumulate).
func (l *Log) quarantineLocked(data []byte, verified int64) error {
	qpath := l.path + ".quarantine"
	qf, err := l.fs.OpenFile(qpath, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open quarantine %s: %w", qpath, err)
	}
	_, werr := qf.Write(data[verified:])
	if werr == nil {
		werr = qf.Sync()
	}
	if cerr := qf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("wal: quarantine %s: %w", qpath, werr)
	}
	return nil
}

// reopenLocked swaps the file handle for a fresh open of l.path.
func (l *Log) reopenLocked() error {
	if l.f != nil {
		l.f.Close()
	}
	f, err := l.fs.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen %s: %w", l.path, err)
	}
	st, err := l.fs.Stat(l.path)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat %s: %w", l.path, err)
	}
	l.f = f
	l.size = st.Size()
	return nil
}

// Append frames payload and appends it. If sync is true the file is
// fsync'd before returning (callers wanting group commit pass false and
// call Sync on their own schedule). A failed append marks the log for
// repair: the next append first truncates back to the last verified
// offset, so a short write can never corrupt the log.
func (l *Log) Append(payload []byte, sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.replayed {
		return ErrNotReplayed
	}
	if int64(len(payload)) > l.opts.MaxRecordBytes {
		return &ErrRecordTooLarge{Path: l.path, Offset: l.size, Size: int64(len(payload)), Limit: l.opts.MaxRecordBytes}
	}
	if l.pendingRepair {
		if err := l.f.Truncate(l.lastGood); err != nil {
			return fmt.Errorf("wal: repair truncate %s: %w", l.path, err)
		}
		l.size = l.lastGood
		l.pendingRepair = false
	}
	frame := EncodeFrame(payload)
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek %s: %w", l.path, err)
	}
	n, err := l.f.Write(frame)
	if err != nil {
		if n > 0 {
			l.pendingRepair = true
			l.size = l.lastGood + int64(n)
		}
		return fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	l.size += int64(len(frame))
	if sync {
		if err := l.f.Sync(); err != nil {
			// The bytes may or may not be durable; treat the frame as
			// suspect and repair before the next append.
			l.pendingRepair = true
			return fmt.Errorf("wal: sync %s: %w", l.path, err)
		}
	}
	l.lastGood = l.size
	l.records++
	return nil
}

// Sync fsyncs the log (group commit).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.path, err)
	}
	return nil
}

// ReplaceWith atomically replaces the log's contents with the given
// payloads (compaction): a temp file is written with a fresh header and
// all frames, fsync'd, renamed over the log, and the directory fsync'd.
// The log stays usable for appends afterwards.
func (l *Log) ReplaceWith(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	tmp := l.path + ".tmp"
	f, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact open %s: %w", tmp, err)
	}
	err = func() error {
		if _, err := f.Write(EncodeHeader()); err != nil {
			return err
		}
		for _, p := range payloads {
			if int64(len(p)) > l.opts.MaxRecordBytes {
				return &ErrRecordTooLarge{Path: tmp, Size: int64(len(p)), Limit: l.opts.MaxRecordBytes}
			}
			if _, err := f.Write(EncodeFrame(p)); err != nil {
				return err
			}
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: compact rename %s: %w", l.path, err)
	}
	if err := l.fs.SyncDir(fsx.Dir(l.path)); err != nil {
		return fmt.Errorf("wal: compact sync dir: %w", err)
	}
	if err := l.reopenLocked(); err != nil {
		return err
	}
	l.lastGood = l.size
	l.pendingRepair = false
	l.records = len(payloads)
	return nil
}

// Close closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// TornTail reports how many torn tails replay has truncated.
func (l *Log) TornTail() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tornTail
}

// Quarantined reports how many corrupt suffixes were sidecared.
func (l *Log) Quarantined() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quarantined
}

// Migrated reports whether Replay converted a legacy JSONL file.
func (l *Log) Migrated() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.migrated
}

// Records reports the number of live records (replayed plus appended).
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Size reports the current file size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}
