// Package wal is the server's write-ahead sample log: every frame the
// ingest listener accepts is appended (and optionally fsynced) *before*
// it reaches the serving pipeline, so a crashed daemon replays the log
// through the deterministic pipeline back to the exact pre-crash decision
// state — the crash-replay golden asserts the recovered transcript is
// byte-identical to an uninterrupted run. Because records are the wire
// frame payloads themselves (internal/wire), a WAL file doubles as a
// capture format: a production stream recorded by capserved replays
// through the Lab or capstress unchanged.
//
// On-disk layout: an 8-byte magic header, then records of
//
//	uvarint(len(payload)) || payload || crc32c(payload) (4 bytes LE)
//
// Appends are atomic per record at the format level: Open scans the file
// and truncates everything after the last complete, checksum-valid
// record, so arbitrary tail truncation (a torn write at crash) recovers
// cleanly — the torn-write fuzz test pins this. A corrupt record *body*
// (bit rot rather than truncation) fails Open instead of being silently
// skipped: replaying around a hole would desequence every site behind it.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"hpcap/internal/core"
)

// Magic identifies a WAL file; Open refuses files that start otherwise.
const Magic = "HPCWAL1\n"

// castagnoli is the CRC-32C table every record checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a WAL whose body (not just its tail) fails
// validation — a wrong magic or a bad checksum before the final record.
var ErrCorrupt = errors.New("corrupt WAL")

// maxRecordBytes bounds one record's payload, guarding replay against
// garbage length fields. It equals wire.MaxFrameBytes: a record is one
// frame payload.
const maxRecordBytes = 1 << 20

// Config tunes a Log. The zero value selects every default
// (DefaultConfig).
type Config struct {
	// SyncEvery fsyncs after every n-th append. 1 — the default — makes
	// every accepted frame durable before it is ingested; larger values
	// trade the tail of the log for throughput (a crash may lose up to
	// SyncEvery-1 records, which replay then simply lacks). Zero selects
	// 1; negative disables fsync entirely (tests, tmpfs).
	SyncEvery int
}

// DefaultConfig returns the defaults Open resolves zero fields to.
func DefaultConfig() Config {
	return Config{SyncEvery: 1}
}

// withDefaults resolves zero fields to DefaultConfig values.
func (c Config) withDefaults() Config {
	switch {
	case c.SyncEvery == 0:
		c.SyncEvery = DefaultConfig().SyncEvery
	case c.SyncEvery < 0:
		c.SyncEvery = 0 // fsync disabled
	}
	return c
}

// Log is an open write-ahead log positioned for appending.
type Log struct {
	f       *os.File
	cfg     Config
	rec     []byte // scratch one whole record is assembled in, written at once
	unsynct int    // appends since the last fsync
}

// Open opens (creating if absent) the WAL at path, recovers its tail,
// and positions it for appending. A file ending in a torn record — a
// truncated length prefix, payload, or checksum — is truncated back to
// its last complete record; recovered reports how many complete records
// survive. A short header (crash before the first record) is rewritten;
// a *wrong* header or a checksum failure before the final record returns
// ErrCorrupt — Open never destroys data that does not parse as a WAL
// tail.
func Open(path string, cfg Config) (log *Log, recovered int, err error) {
	cfg = cfg.withDefaults()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	end, recovered, err := scan(f, nil)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: seek: %w", err)
	}
	return &Log{f: f, cfg: cfg}, recovered, nil
}

// scan walks the WAL from the start: writes the header if the file is
// shorter than one, verifies it otherwise, then visits every complete
// record (calling fn if non-nil) and returns the offset just past the
// last complete record. A torn tail ends the scan cleanly; a bad
// checksum on any record but the last is ErrCorrupt.
func scan(f *os.File, fn func(payload []byte) error) (end int64, n int, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("wal: seek: %w", err)
	}
	hdr := make([]byte, len(Magic))
	hn, err := io.ReadFull(f, hdr)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// Crash before the header finished: the file holds no records.
		// Rewrite the header from scratch.
		if hn > 0 && string(hdr[:hn]) != Magic[:hn] {
			return 0, 0, fmt.Errorf("wal: %w: bad magic", ErrCorrupt)
		}
		if err := f.Truncate(0); err != nil {
			return 0, 0, fmt.Errorf("wal: truncate: %w", err)
		}
		if _, err := f.WriteAt([]byte(Magic), 0); err != nil {
			return 0, 0, fmt.Errorf("wal: write header: %w", err)
		}
		return int64(len(Magic)), 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: read header: %w", err)
	}
	if string(hdr) != Magic {
		return 0, 0, fmt.Errorf("wal: %w: bad magic", ErrCorrupt)
	}

	r := bufio.NewReader(f)
	end = int64(len(Magic))
	var buf []byte
	for {
		length, err := binary.ReadUvarint(r)
		if err != nil {
			// EOF at a record boundary or a torn prefix: tail ends here.
			return end, n, nil
		}
		if length > maxRecordBytes {
			// A garbage length is indistinguishable from a torn prefix;
			// treat it as the tail unless records follow (they cannot —
			// we cannot skip an unreadable length).
			return end, n, nil
		}
		need := int(length) + 4
		if uint64(cap(buf)) < uint64(need) {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		if _, err := io.ReadFull(r, buf); err != nil {
			// Torn payload or checksum: tail ends at the last record.
			return end, n, nil
		}
		payload, sum := buf[:length], binary.LittleEndian.Uint32(buf[length:])
		if crc32.Checksum(payload, castagnoli) != sum {
			// A checksum mismatch on what a *complete* read produced is
			// only recoverable if nothing follows (a torn write whose
			// final bytes happen to exist as garbage). Peek: if more
			// data follows, the body is corrupt, not torn.
			if _, err := r.Peek(1); err == nil {
				return 0, 0, fmt.Errorf("wal: %w: checksum mismatch in record %d", ErrCorrupt, n)
			}
			return end, n, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return 0, 0, err
			}
		}
		n++
		end += int64(uvarintLen(length)) + int64(need)
	}
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Append writes one record — length prefix, payload, checksum — in one
// write and fsyncs per Config.SyncEvery. The payload is durable (fsync
// permitting) before Append returns; callers ingest it only afterwards,
// which is what makes replay an exact reconstruction.
func (l *Log) Append(payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("wal: %w: record %d bytes exceeds %d",
			core.ErrBadConfig, len(payload), maxRecordBytes)
	}
	l.rec = binary.AppendUvarint(l.rec[:0], uint64(len(payload)))
	l.rec = append(l.rec, payload...)
	l.rec = binary.LittleEndian.AppendUint32(l.rec, crc32.Checksum(payload, castagnoli))
	if _, err := l.f.Write(l.rec); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.unsynct++
	if l.cfg.SyncEvery > 0 && l.unsynct >= l.cfg.SyncEvery {
		return l.Sync()
	}
	return nil
}

// Sync fsyncs the log.
func (l *Log) Sync() error {
	l.unsynct = 0
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	if l.cfg.SyncEvery > 0 && l.unsynct > 0 {
		if err := l.Sync(); err != nil {
			l.f.Close()
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Replay reads every complete record of the WAL at path in append order,
// calling fn on each payload, and reports how many records it visited.
// A torn tail ends the replay cleanly (the lost tail was never ingested
// either — the WAL is written before the pipeline sees a frame); a
// corrupt body or fn error aborts it. Replay never modifies the file,
// and no Config field affects a read.
func Replay(path string, _ Config, fn func(payload []byte) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	_, n, err := scanReadOnly(f, fn)
	return n, err
}

// scanReadOnly is scan without the header-rewrite side effect, for
// Replay's read-only contract.
func scanReadOnly(f *os.File, fn func(payload []byte) error) (int64, int, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: stat: %w", err)
	}
	if st.Size() < int64(len(Magic)) {
		hdr := make([]byte, st.Size())
		if _, err := f.ReadAt(hdr, 0); err != nil && err != io.EOF {
			return 0, 0, fmt.Errorf("wal: read header: %w", err)
		}
		if string(hdr) != Magic[:len(hdr)] {
			return 0, 0, fmt.Errorf("wal: %w: bad magic", ErrCorrupt)
		}
		return st.Size(), 0, nil
	}
	return scan(f, fn)
}
