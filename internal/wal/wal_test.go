package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hpcap/internal/core"
)

// testPayloads returns n distinct payloads with varied sizes, including
// one empty and one spanning a multi-byte length prefix.
func testPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		size := (i * 37) % 300
		if i == 1 {
			size = 0
		}
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i + j)
		}
		out[i] = p
	}
	return out
}

// writeLog creates a WAL at path holding the given payloads.
func writeLog(t *testing.T, path string, payloads [][]byte) {
	t.Helper()
	log, recovered, err := Open(path, Config{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 0 {
		t.Fatalf("fresh WAL recovered %d records", recovered)
	}
	for _, p := range payloads {
		if err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll collects every payload in the WAL.
func replayAll(t *testing.T, path string) [][]byte {
	t.Helper()
	var out [][]byte
	n, err := Replay(path, Config{}, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out) {
		t.Fatalf("Replay reported %d records, delivered %d", n, len(out))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	payloads := testPayloads(20)
	writeLog(t, path, payloads)

	got := replayAll(t, path)
	if len(got) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("record %d mutated", i)
		}
	}

	// Reopening recovers every record and appends after them.
	log, recovered, err := Open(path, Config{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if recovered != len(payloads) {
		t.Fatalf("recovered %d records, want %d", recovered, len(payloads))
	}
	extra := []byte("appended-after-recovery")
	if err := log.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got = replayAll(t, path)
	if len(got) != len(payloads)+1 || !bytes.Equal(got[len(got)-1], extra) {
		t.Fatalf("post-recovery append not replayed: %d records", len(got))
	}
}

func TestReplayIsReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	writeLog(t, path, testPayloads(5))
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, path)
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("Replay modified the WAL file")
	}
}

func TestOpenRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(8)
	ref := filepath.Join(dir, "ref.wal")
	writeLog(t, ref, payloads)
	whole, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	// boundaries[k] is the file offset just past record k-1.
	boundaries := recordBoundaries(payloads)

	for keep := 0; keep <= len(whole); keep++ {
		path := filepath.Join(dir, fmt.Sprintf("torn-%d.wal", keep))
		if err := os.WriteFile(path, whole[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		log, recovered, err := Open(path, Config{SyncEvery: -1})
		if err != nil {
			t.Fatalf("keep %d/%d: %v", keep, len(whole), err)
		}
		wantRecovered := 0
		for k, b := range boundaries {
			if int64(keep) >= b {
				wantRecovered = k + 1
			}
		}
		if recovered != wantRecovered {
			t.Fatalf("keep %d: recovered %d records, want %d", keep, recovered, wantRecovered)
		}
		// The recovered log must accept appends and replay as the intact
		// prefix plus the new record.
		if err := log.Append([]byte("post-crash")); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, path)
		if len(got) != wantRecovered+1 {
			t.Fatalf("keep %d: replayed %d records, want %d", keep, len(got), wantRecovered+1)
		}
		for i := 0; i < wantRecovered; i++ {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("keep %d: recovered record %d mutated", keep, i)
			}
		}
	}
}

// recordBoundaries returns the file offset just past each record.
func recordBoundaries(payloads [][]byte) []int64 {
	off := int64(len(Magic))
	out := make([]int64, len(payloads))
	for i, p := range payloads {
		off += int64(uvarintLen(uint64(len(p)))) + int64(len(p)) + 4
		out[i] = off
	}
	return out
}

func TestOpenRejectsCorruptBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	payloads := testPayloads(6)
	writeLog(t, path, payloads)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle of the file: record 2 is large
	// enough to have a body, and records follow it.
	boundaries := recordBoundaries(payloads)
	mid := boundaries[1] + 2 // inside record 2's payload
	whole[mid] ^= 0xff
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Config{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open on flipped body: got %v, want ErrCorrupt", err)
	}
	if _, err := Replay(path, Config{}, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Replay on flipped body: got %v, want ErrCorrupt", err)
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL!plus some data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Config{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open on bad magic: got %v, want ErrCorrupt", err)
	}
}

func TestAppendRejectsOversizeRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	log, _, err := Open(path, Config{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Append(make([]byte, 1<<20+1)); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("oversize append: got %v, want ErrBadConfig", err)
	}
	if err := log.Append(make([]byte, 1<<20)); err != nil {
		t.Errorf("at-limit append: %v", err)
	}
}

func TestReplayStopsOnCallbackError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	writeLog(t, path, testPayloads(5))
	boom := errors.New("boom")
	calls := 0
	_, err := Replay(path, Config{}, func([]byte) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("got %v, want callback error", err)
	}
	if calls != 2 {
		t.Errorf("callback ran %d times after error, want 2", calls)
	}
}

// TestDefaultConfigValid opens a log under the default, zero and
// never-fsync configs; no Config value is an error.
func TestDefaultConfigValid(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), {}, {SyncEvery: -1}} {
		path := filepath.Join(t.TempDir(), "w.wal")
		log, _, err := Open(path, cfg)
		if err != nil {
			t.Fatalf("Open(%+v): %v", cfg, err)
		}
		if err := log.Append([]byte("x")); err != nil {
			t.Errorf("Append under %+v: %v", cfg, err)
		}
		if err := log.Close(); err != nil {
			t.Errorf("Close under %+v: %v", cfg, err)
		}
	}
}
