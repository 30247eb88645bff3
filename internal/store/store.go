// Package store is the durable second tier behind the serving layer's
// in-memory result cache: a filesystem content-addressed store keyed by the
// canonical-JSON SHA-256 fingerprints from internal/canon. Every object is
// one immutable result document filed under its fingerprint in a sharded
// objects/ab/cdef… layout, written atomically (tmp file + rename) so readers
// — including other processes sharing the directory — never observe a
// partial object. Reads re-hash the payload against the digest recorded in
// the object header, so disk corruption surfaces as a miss instead of a
// poisoned result; a size-budgeted sweep evicts the least recently used
// objects when the store outgrows its budget.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sentinel errors.
var (
	// ErrNotFound reports a fingerprint with no stored object.
	ErrNotFound = errors.New("store: object not found")
	// ErrCorrupt reports an object whose payload no longer matches its
	// recorded digest (or whose header is unreadable); the object is removed
	// so the next Put can heal it.
	ErrCorrupt = errors.New("store: object corrupt")
	// ErrBadKey reports a key that is not a 64-character lowercase-hex
	// fingerprint.
	ErrBadKey = errors.New("store: key is not a sha-256 fingerprint")
)

// header is the object preamble: magic, payload digest, payload length.
// Keeping the digest in the object (rather than trusting the file name)
// makes corruption detection independent of where the object was filed.
const headerMagic = "wardstore1"

// Options parameterises a Store.
type Options struct {
	// MaxBytes is the payload size budget enforced by Sweep (and by Put,
	// which sweeps opportunistically after crossing it). 0 means unbudgeted.
	MaxBytes int64
}

// Stats is a point-in-time census of the store.
type Stats struct {
	// Objects and Bytes count stored objects and their payload bytes.
	Objects int64 `json:"objects"`
	Bytes   int64 `json:"bytes"`
	// MaxBytes echoes the configured budget (0: unbudgeted).
	MaxBytes int64 `json:"maxBytes"`
}

// Store is a fingerprint-keyed object store rooted at one directory. It is
// safe for concurrent use, including by multiple processes sharing the
// directory: writes are atomic renames, reads validate digests, and eviction
// races degrade to misses.
type Store struct {
	dir string
	max int64

	// mu serialises the in-process size accounting and the sweep; readers
	// never take it.
	mu      sync.Mutex
	bytes   int64 // approximate payload bytes (exact for single-process use)
	objects int64
}

// Open initialises the store directory (creating objects/ and tmp/) and
// indexes the existing objects for size accounting.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxBytes < 0 {
		return nil, fmt.Errorf("store: negative MaxBytes %d", opts.MaxBytes)
	}
	for _, sub := range []string{objectsDir, tmpDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{dir: dir, max: opts.MaxBytes}
	objects, bytes, err := s.census()
	if err != nil {
		return nil, err
	}
	s.objects, s.bytes = objects, bytes
	return s, nil
}

const (
	objectsDir = "objects"
	tmpDir     = "tmp"
)

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path files a fingerprint under objects/ab/cdef….
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, objectsDir, key[:2], key[2:])
}

// validKey accepts exactly the lowercase-hex SHA-256 alphabet internal/canon
// emits; anything else would escape the sharded layout.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put stores data under the fingerprint key. Objects are immutable: a key
// that already exists is left untouched (results are deterministic per
// fingerprint, so the stored bytes are already the right ones). The write is
// atomic — a tmp file in the same filesystem renamed into place — so
// concurrent readers and writers, in this process or another, never observe
// a torn object.
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	dst := s.path(key)
	if _, err := os.Stat(dst); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), "put-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	sum := sha256.Sum256(data)
	w := bufio.NewWriter(tmp)
	if _, err := fmt.Fprintf(w, "%s %s %d\n", headerMagic, hex.EncodeToString(sum[:]), len(data)); err == nil {
		_, err = w.Write(data)
		if err == nil {
			err = w.Flush()
		}
	}
	if err != nil {
		tmp.Close()
		return err
	}
	// The fsync is the durability half of the contract: after Put returns,
	// a crashed-and-restarted server still serves the fingerprint.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return err
	}
	s.mu.Lock()
	s.objects++
	s.bytes += int64(len(data))
	over := s.max > 0 && s.bytes > s.max
	s.mu.Unlock()
	if over {
		_, _, err = s.Sweep()
	}
	return err
}

// Get returns the payload stored under key. A missing object returns
// ErrNotFound; an object whose payload fails digest validation is removed
// and returns ErrCorrupt. Successful reads touch the object's mtime, making
// the sweep's eviction order least-recently-used rather than
// least-recently-written.
func (s *Store) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	path := s.path(key)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := readObject(f, info.Size())
	if err != nil {
		// Quarantine by deletion: the next Put recomputes the result and
		// heals the slot. The accounting loses the (unknowable) corrupt
		// payload size; the next census corrects any drift.
		os.Remove(path)
		s.mu.Lock()
		if s.objects > 0 {
			s.objects--
		}
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, key, err)
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return data, nil
}

// readObject parses and validates one object file of size bytes. The
// header's payload length must account for exactly the bytes after the
// header line before anything is allocated, so a damaged length can neither
// request an impossible buffer nor leave data unread.
func readObject(r io.Reader, size int64) ([]byte, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("header: %v", err)
	}
	fields := strings.Fields(string(line))
	if len(fields) != 3 || fields[0] != headerMagic {
		return nil, errors.New("bad header")
	}
	want, err := hex.DecodeString(fields[1])
	if err != nil || len(want) != sha256.Size {
		return nil, errors.New("bad header digest")
	}
	n, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || n < 0 {
		return nil, errors.New("bad header length")
	}
	if rest := size - int64(len(line)); n != rest {
		return nil, fmt.Errorf("header length %d, but %d payload bytes on disk", n, rest)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(br, data); err != nil {
		return nil, fmt.Errorf("payload: %v", err)
	}
	sum := sha256.Sum256(data)
	for i := range sum {
		if sum[i] != want[i] {
			return nil, errors.New("digest mismatch")
		}
	}
	return data, nil
}

// Has reports whether an object exists for key without reading it.
func (s *Store) Has(key string) bool {
	if !validKey(key) {
		return false
	}
	_, err := os.Stat(s.path(key))
	return err == nil
}

// Stats reports the store's current census from the in-process accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Objects: s.objects, Bytes: s.bytes, MaxBytes: s.max}
}

// object is one indexed entry of the on-disk census.
type object struct {
	path  string
	bytes int64
	mtime time.Time
}

// census walks the objects tree. Object payload size is the file size minus
// its header line; files that are not valid object names are ignored.
func (s *Store) census() (objects, bytes int64, err error) {
	_, objs, err := s.index()
	if err != nil {
		return 0, 0, err
	}
	for _, o := range objs {
		bytes += o.bytes
	}
	return int64(len(objs)), bytes, nil
}

// index lists every stored object with size and mtime.
func (s *Store) index() (total int64, objs []object, err error) {
	root := filepath.Join(s.dir, objectsDir)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A shard removed mid-walk (concurrent eviction) is not an error.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		payload := info.Size() - objectHeaderSize(path)
		if payload < 0 {
			payload = 0
		}
		objs = append(objs, object{path: path, bytes: payload, mtime: info.ModTime()})
		total += payload
		return nil
	})
	return total, objs, err
}

// objectHeaderSize computes the header length for the object at path from
// its file name (the digest length is fixed, the payload length varies but
// the header is one short first line; an estimate from the file is fine for
// budgeting). To stay exact we read the first line's length lazily only in
// Sweep; for census purposes the fixed part dominates. Returns the length of
// "wardstore1 <64 hex> " plus up to 20 digits and the newline, conservatively
// the minimum fixed size.
func objectHeaderSize(path string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 128)
	line, err := br.ReadString('\n')
	if err != nil {
		return 0
	}
	return int64(len(line))
}

// Sweep enforces the size budget: when the payload total exceeds MaxBytes,
// the least recently used objects (by mtime, which Get refreshes) are
// removed until the store fits. It also reconciles the in-process accounting
// with the on-disk truth, so stores shared between processes converge.
func (s *Store) Sweep() (removed int64, freed int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	total, objs, err := s.index()
	if err != nil {
		return 0, 0, err
	}
	if s.max > 0 && total > s.max {
		sort.Slice(objs, func(i, j int) bool { return objs[i].mtime.Before(objs[j].mtime) })
		for _, o := range objs {
			if total <= s.max {
				break
			}
			if err := os.Remove(o.path); err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					continue
				}
				return removed, freed, err
			}
			total -= o.bytes
			removed++
			freed += o.bytes
		}
	}
	// Reconcile: recount what survived.
	var objects int64
	var bytes int64
	_, survivors, err := s.index()
	if err != nil {
		return removed, freed, err
	}
	for _, o := range survivors {
		bytes += o.bytes
	}
	objects = int64(len(survivors))
	s.objects, s.bytes = objects, bytes
	return removed, freed, nil
}
