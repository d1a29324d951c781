package resultstore

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rendezvous/internal/core"
	"rendezvous/internal/explore"
	"rendezvous/internal/graph"
	"rendezvous/internal/sim"
)

// testFingerprint returns a content address for the store tests: a
// search over the oriented 6-ring written with NewEncoder. Distinct
// spaces give distinct addresses.
func testFingerprint(t *testing.T, space sim.SearchSpace) string {
	t.Helper()
	params := core.Params{L: 4}
	e := NewEncoder("resultstore-test")
	sched := func(l int) sim.Schedule { return core.Cheap{}.Schedule(l, params) }
	if err := e.Search(graph.OrientedRing(6), explore.OrientedRingSweep{}, sched, space); err != nil {
		t.Fatal(err)
	}
	return e.Sum()
}

func sampleResult() sim.WorstCase {
	return sim.WorstCase{
		Time:   sim.Witness{LabelA: 1, LabelB: 2, StartA: 0, StartB: 3, DelayB: 1, Value: 42},
		Cost:   sim.Witness{LabelA: 2, LabelB: 1, StartA: 0, StartB: 2, DelayB: 0, Value: 17},
		Runs:   360,
		AllMet: true,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := testFingerprint(t, sim.SearchSpace{L: 4})
	if _, ok := store.Get(fp); ok {
		t.Fatal("Get on empty store: want miss")
	}
	want := sampleResult()
	if err := store.Put(fp, want); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Get(fp)
	if !ok {
		t.Fatal("Get after Put: want hit")
	}
	if got != want {
		t.Errorf("round trip diverged:\nput: %+v\ngot: %+v", want, got)
	}
}

// TestDelete: a deleted record reads as a miss, and deleting it again
// (or an unaddressable fingerprint) is an error.
func TestDelete(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := testFingerprint(t, sim.SearchSpace{L: 4})
	if err := store.Put(fp, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(fp); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(fp); ok {
		t.Error("Get after Delete: want miss")
	}
	if err := store.Delete(fp); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("second Delete: err = %v, want fs.ErrNotExist", err)
	}
	if err := store.Delete("a"); err == nil {
		t.Error("Delete of a too-short fingerprint: want error")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\"): want error")
	}
}

// recordPath digs out the on-disk file of a fingerprint, for the
// corruption tests.
func recordPath(t *testing.T, store *Store, fp string) string {
	t.Helper()
	path, err := store.path(fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("record file missing: %v", err)
	}
	return path
}

// TestCorruptionReadsAsMissAndRewrites is the recompute-on-corruption
// contract: truncating or garbling a record must turn Get into a
// silent miss — never an error — and the caller's recompute-and-Put
// must restore a valid record with the original result.
func TestCorruptionReadsAsMissAndRewrites(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbled-byte", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a digit inside the result payload so the JSON still
			// parses but the checksum no longer matches.
			s := strings.Replace(string(data), `"Value": 42`, `"Value": 43`, 1)
			if s == string(data) {
				t.Fatal("corruption did not apply; record layout changed?")
			}
			if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"emptied", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"not-json", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("definitely not json{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			store, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			fp := testFingerprint(t, sim.SearchSpace{L: 4})
			want := sampleResult()
			if err := store.Put(fp, want); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, recordPath(t, store, fp))

			if _, ok := store.Get(fp); ok {
				t.Fatal("Get on corrupt record: want miss, got hit")
			}
			// The caller's recovery path: recompute, rewrite, reread.
			if err := store.Put(fp, want); err != nil {
				t.Fatalf("Put over corrupt record: %v", err)
			}
			got, ok := store.Get(fp)
			if !ok {
				t.Fatal("Get after rewrite: want hit")
			}
			if got != want {
				t.Errorf("rewrite diverged: %+v != %+v", got, want)
			}
		})
	}
}

func TestGetRejectsForeignVersionAndFingerprint(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := testFingerprint(t, sim.SearchSpace{L: 4})
	if err := store.Put(fp, sampleResult()); err != nil {
		t.Fatal(err)
	}
	path := recordPath(t, store, fp)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A record claiming a different schema version must read as a miss
	// even though its checksum is internally consistent.
	rec, ok := decode(data, fp)
	if !ok {
		t.Fatal("fresh record did not decode")
	}
	rec.Version = recordVersion + 1
	rec.Checksum = rec.checksum()
	writeRecord(t, path, rec)
	if _, ok := store.Get(fp); ok {
		t.Error("foreign version: want miss")
	}

	// A record stored under the wrong fingerprint (e.g. a file renamed
	// by hand) must read as a miss too.
	rec.Version = recordVersion
	rec.Fingerprint = strings.Repeat("ab", 32)
	rec.Checksum = rec.checksum()
	writeRecord(t, path, rec)
	if _, ok := store.Get(fp); ok {
		t.Error("foreign fingerprint: want miss")
	}
}

func writeRecord(t *testing.T, path string, rec record) {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestIndexAndGC(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []sim.SearchSpace{{L: 2}, {L: 3}, {L: 4}}
	var fps []string
	for _, space := range keys {
		fp := testFingerprint(t, space)
		if err := store.Put(fp, sampleResult()); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	// Corrupt the middle record and age the first so GC ordering is
	// deterministic.
	if err := os.WriteFile(recordPath(t, store, fps[1]), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(recordPath(t, store, fps[0]), old, old); err != nil {
		t.Fatal(err)
	}

	entries, err := store.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("Index: %d entries, want 3", len(entries))
	}
	valid := 0
	for _, e := range entries {
		if e.Valid {
			valid++
			if e.Runs != 360 || !e.AllMet {
				t.Errorf("entry %s: summary %+v, want Runs 360 AllMet true", e.Fingerprint[:8], e)
			}
		}
	}
	if valid != 2 {
		t.Errorf("Index: %d valid entries, want 2", valid)
	}

	// GC removes the corrupt record, then the oldest valid one to meet
	// the cap.
	removed, err := store.GC(GCOptions{MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("GC removed %d, want 2", removed)
	}
	if _, ok := store.Get(fps[0]); ok {
		t.Error("oldest valid record survived GC with MaxEntries 1")
	}
	if _, ok := store.Get(fps[2]); !ok {
		t.Error("newest valid record did not survive GC")
	}
	entries, err = store.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("after GC: %d entries, want 1", len(entries))
	}
}

func TestGCRemovesStrayTempFiles(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := testFingerprint(t, sim.SearchSpace{L: 4})
	if err := store.Put(fp, sampleResult()); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(store.Dir(), "objects", fp[:2], ".tmp-crashed")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(store.Dir(), "objects", fp[:2], ".tmp-inflight")
	if err := os.WriteFile(fresh, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Only temp files past the grace period are abandoned; a fresh one
	// may be a concurrent Put from another process mid-write.
	old := time.Now().Add(-2 * gcTempGrace)
	if err := os.Chtimes(stray, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := store.GC(GCOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("abandoned temp file survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("in-flight temp file was removed by GC")
	}
	if _, ok := store.Get(fp); !ok {
		t.Error("valid record did not survive GC")
	}
}
