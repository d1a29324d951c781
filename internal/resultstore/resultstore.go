package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rendezvous/internal/sim"
)

// recordVersion is the on-disk schema version. A record with any other
// version is treated as a miss (and replaced on the next Put), so the
// schema can evolve without a migration step.
const recordVersion = 1

// record is the on-disk form of one cached result. Checksum is the
// SHA-256 of the record's canonical JSON with Checksum itself empty;
// it detects truncation and bit rot, both of which read as misses.
type record struct {
	Version     int           `json:"version"`
	Fingerprint string        `json:"fingerprint"`
	Created     time.Time     `json:"created"`
	Result      sim.WorstCase `json:"result"`
	Checksum    string        `json:"checksum"`
}

// checksum returns the record's integrity hash: SHA-256 over the
// canonical JSON encoding with the Checksum field blanked.
func (r record) checksum() string {
	r.Checksum = ""
	data, err := json.Marshal(r)
	if err != nil {
		// record contains only marshalable fields; this cannot happen.
		panic(fmt.Sprintf("resultstore: marshal record: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Store is a content-addressed on-disk cache of WorstCase results,
// safe for concurrent use by multiple goroutines and (thanks to
// atomic rename writes) by multiple processes sharing the directory.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if
// needed and verifying it is writable. The same directory can be
// opened by any number of stores concurrently.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: Open: empty directory")
	}
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: Open: %w", err)
	}
	probe, err := os.CreateTemp(objects, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("resultstore: Open: directory not writable: %w", err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path returns the record file for a fingerprint, fanned out by its
// first two hex digits to keep directories small.
func (s *Store) path(fp string) (string, error) {
	if len(fp) < 2 {
		return "", fmt.Errorf("resultstore: fingerprint %q too short", fp)
	}
	return filepath.Join(s.dir, "objects", fp[:2], fp+".json"), nil
}

// Get returns the cached result for the fingerprint. Every failure
// mode — absent file, unreadable file, malformed JSON, version or
// fingerprint mismatch, checksum mismatch — reads as a miss (ok ==
// false), never an error: the caller recomputes and Puts, which
// overwrites whatever was damaged.
func (s *Store) Get(fp string) (sim.WorstCase, bool) {
	path, err := s.path(fp)
	if err != nil {
		return sim.WorstCase{}, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return sim.WorstCase{}, false
	}
	rec, ok := decode(data, fp)
	if !ok {
		return sim.WorstCase{}, false
	}
	return rec.Result, true
}

// decode parses and integrity-checks one record body. wantFP == ""
// accepts any fingerprint (used by Index).
func decode(data []byte, wantFP string) (record, bool) {
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return record{}, false
	}
	if rec.Version != recordVersion {
		return record{}, false
	}
	if wantFP != "" && rec.Fingerprint != wantFP {
		return record{}, false
	}
	if rec.Checksum == "" || rec.Checksum != rec.checksum() {
		return record{}, false
	}
	return rec, true
}

// Put writes the result under the fingerprint atomically and durably:
// the record is written to a temp file in the destination directory,
// fsynced, renamed into place, and the directory is fsynced, so
// concurrent readers only ever observe complete records, concurrent
// writers of the same fingerprint converge on identical content, and
// a returned nil survives power loss.
func (s *Store) Put(fp string, wc sim.WorstCase) error {
	path, err := s.path(fp)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultstore: Put: %w", err)
	}
	rec := record{Version: recordVersion, Fingerprint: fp, Created: time.Now().UTC(), Result: wc}
	rec.Checksum = rec.checksum()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("resultstore: Put: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: Put: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: Put: %w", err)
	}
	// Sync before the rename publishes the name: without it a power
	// loss can leave a complete-looking path whose bytes never hit disk.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: Put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: Put: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: Put: %w", err)
	}
	// The rename itself lives in the directory, not the file: without
	// an fsync of the parent directory a power loss can undo the
	// rename and the published entry silently vanishes (readers would
	// see a miss, not corruption — but Put promises durability).
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("resultstore: Put: %w", err)
	}
	if err := dir.Sync(); err != nil {
		dir.Close()
		return fmt.Errorf("resultstore: Put: %w", err)
	}
	if err := dir.Close(); err != nil {
		return fmt.Errorf("resultstore: Put: %w", err)
	}
	return nil
}

// Entry describes one record in the store's index.
type Entry struct {
	// Fingerprint is the content address (taken from the file name).
	Fingerprint string `json:"fingerprint"`
	// Size is the record file's size in bytes.
	Size int64 `json:"size"`
	// ModTime is the record file's modification time.
	ModTime time.Time `json:"modTime"`
	// Valid reports whether the record decodes and its checksum holds.
	Valid bool `json:"valid"`
	// TimeValue, CostValue and Runs summarize a valid record's result.
	TimeValue int `json:"timeValue,omitempty"`
	CostValue int `json:"costValue,omitempty"`
	Runs      int `json:"runs,omitempty"`
	// AllMet is the valid record's rendezvous-completeness bit.
	AllMet bool `json:"allMet,omitempty"`
}

// Index walks the store and returns one entry per record file, sorted
// by fingerprint. Corrupt records are listed with Valid == false
// rather than skipped, so an operator can see what GC would remove.
func (s *Store) Index() ([]Entry, error) {
	pattern := filepath.Join(s.dir, "objects", "*", "*.json")
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("resultstore: Index: %w", err)
	}
	entries := make([]Entry, 0, len(paths))
	for _, path := range paths {
		fp := filepath.Base(path)
		fp = fp[:len(fp)-len(".json")]
		entry := Entry{Fingerprint: fp}
		if info, err := os.Stat(path); err == nil {
			entry.Size = info.Size()
			entry.ModTime = info.ModTime()
		}
		if data, err := os.ReadFile(path); err == nil {
			if rec, ok := decode(data, fp); ok {
				entry.Valid = true
				entry.TimeValue = rec.Result.Time.Value
				entry.CostValue = rec.Result.Cost.Value
				entry.Runs = rec.Result.Runs
				entry.AllMet = rec.Result.AllMet
			}
		}
		entries = append(entries, entry)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Fingerprint < entries[j].Fingerprint })
	return entries, nil
}

// GCOptions tunes garbage collection.
type GCOptions struct {
	// MaxEntries, when positive, caps the number of valid records kept:
	// the oldest (by ModTime, then fingerprint) beyond the cap are
	// removed. Zero keeps every valid record.
	MaxEntries int
}

// gcTempGrace is how old a temp file must be before GC treats it as
// abandoned by a crashed writer: a younger one may belong to a
// concurrent Put in another process mid-write (the directory is
// documented as safe to share), whose rename would fail if GC raced
// it away.
const gcTempGrace = time.Hour

// GC removes corrupt records and, when opts.MaxEntries is positive,
// the oldest valid records beyond the cap. It returns how many record
// files were removed. Stray temp files abandoned by crashed writers
// (older than an hour) are removed as well (not counted).
func (s *Store) GC(opts GCOptions) (int, error) {
	if tmps, err := filepath.Glob(filepath.Join(s.dir, "objects", "*", ".tmp-*")); err == nil {
		cutoff := time.Now().Add(-gcTempGrace)
		for _, t := range tmps {
			if info, err := os.Stat(t); err == nil && info.ModTime().Before(cutoff) {
				os.Remove(t)
			}
		}
	}
	entries, err := s.Index()
	if err != nil {
		return 0, err
	}
	removed := 0
	var valid []Entry
	for _, e := range entries {
		if e.Valid {
			valid = append(valid, e)
			continue
		}
		if s.Delete(e.Fingerprint) == nil {
			removed++
		}
	}
	if opts.MaxEntries > 0 && len(valid) > opts.MaxEntries {
		sort.Slice(valid, func(i, j int) bool {
			if !valid[i].ModTime.Equal(valid[j].ModTime) {
				return valid[i].ModTime.Before(valid[j].ModTime)
			}
			return valid[i].Fingerprint < valid[j].Fingerprint
		})
		for _, e := range valid[:len(valid)-opts.MaxEntries] {
			if s.Delete(e.Fingerprint) == nil {
				removed++
			}
		}
	}
	return removed, nil
}

// Delete removes the record stored under the fingerprint; an absent
// record is an error (fs.ErrNotExist). The removal is not synced: a
// crash may bring the record back, which costs a disk entry, never a
// wrong answer, since a record's content is fixed by its fingerprint.
func (s *Store) Delete(fp string) error {
	path, err := s.path(fp)
	if err != nil {
		return err
	}
	return os.Remove(path)
}
