package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// key derives a valid fingerprint key from a label.
func key(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := key("doc")
	doc := []byte(`{"result":42}` + "\n")
	if err := s.Put(k, doc); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatalf("Get = %q, want %q", got, doc)
	}
	if !s.Has(k) {
		t.Error("Has = false after Put")
	}
	// Objects are immutable: a second Put with different bytes must not
	// clobber the stored object.
	if err := s.Put(k, []byte("other")); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatalf("Get after duplicate Put = %q, want original %q", got, doc)
	}
	st := s.Stats()
	if st.Objects != 1 || st.Bytes != int64(len(doc)) {
		t.Errorf("Stats = %+v, want 1 object / %d bytes", st, len(doc))
	}
}

func TestMissingAndBadKeys(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key("nope")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
	for _, bad := range []string{"", "abc", "../../../../etc/passwd", key("x")[:63] + "G"} {
		if err := s.Put(bad, []byte("x")); !errors.Is(err, ErrBadKey) {
			t.Errorf("Put(%q) = %v, want ErrBadKey", bad, err)
		}
		if _, err := s.Get(bad); !errors.Is(err, ErrBadKey) {
			t.Errorf("Get(%q) = %v, want ErrBadKey", bad, err)
		}
		if s.Has(bad) {
			t.Errorf("Has(%q) = true", bad)
		}
	}
}

// TestDurableAcrossReopen is the restart contract: objects written by one
// Store instance are served by a fresh instance on the same directory, and
// the census picks up their sizes.
func TestDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{}
	for i := 0; i < 10; i++ {
		k := key(fmt.Sprint("doc", i))
		docs[k] = []byte(fmt.Sprintf(`{"i":%d}`, i))
		if err := s1.Put(k, docs[k]); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range docs {
		got, err := s2.Get(k)
		if err != nil {
			t.Fatalf("Get(%s) after reopen: %v", k[:8], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q, want %q", k[:8], got, want)
		}
	}
	if st := s2.Stats(); st.Objects != 10 {
		t.Errorf("reopened Stats.Objects = %d, want 10", st.Objects)
	}
}

// TestCorruptionDetectedOnRead flips payload bytes on disk and expects the
// re-hash on read to quarantine the object instead of serving garbage.
func TestCorruptionDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := key("victim")
	doc := []byte(`{"fine":true}`)
	if err := s.Put(k, doc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", k[:2], k[2:])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff // flip a payload byte, leave the header intact
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(corrupt) = %v, want ErrCorrupt", err)
	}
	// The corrupt object was removed, so the slot reads as missing and a
	// fresh Put heals it.
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after quarantine = %v, want ErrNotFound", err)
	}
	if err := s.Put(k, doc); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("Get after heal = %q, %v", got, err)
	}
}

// objectFile renders payload as an object file whose header declares digest
// and length n.
func objectFile(digest string, n int, payload string) []byte {
	return []byte(fmt.Sprintf("%s %s %d\n%s", headerMagic, digest, n, payload))
}

// digestOf is the hex SHA-256 of payload.
func digestOf(payload string) string {
	sum := sha256.Sum256([]byte(payload))
	return hex.EncodeToString(sum[:])
}

// corruptObjects are damaged object files, each of which Get must report as
// ErrCorrupt and quarantine. A length no file can back (2⁶²) must be
// rejected before the payload buffer is allocated.
var corruptObjects = []struct {
	name string
	raw  []byte
}{
	{"empty file", nil},
	{"header without newline", []byte(headerMagic)},
	{"bad magic", []byte("notmagic " + digestOf("abc") + " 3\nabc")},
	{"bad digest hex", []byte(headerMagic + " zz 3\nabc")},
	{"negative length", objectFile(digestOf("abc"), -1, "abc")},
	{"length 2^62", objectFile(digestOf("abc"), 1<<62, "abc")},
	{"length past end of file", objectFile(digestOf("abc"), 999, "abc")},
	{"trailing data", objectFile(digestOf("abc"), 3, "abcd")},
	{"digest mismatch", objectFile(digestOf("abd"), 3, "abc")},
}

// TestHeaderGarbageIsCorrupt covers damage to an object file beyond its
// payload bytes — an unreadable header, a false length, extra bytes or a
// wrong digest: each must read as ErrCorrupt and leave the slot empty.
func TestHeaderGarbageIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range corruptObjects {
		t.Run(tc.name, func(t *testing.T) {
			k := key(tc.name)
			path := filepath.Join(dir, "objects", k[:2], k[2:])
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(k); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get = %v, want ErrCorrupt", err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt object not quarantined: stat = %v", err)
			}
		})
	}
}

// FuzzStoreGet writes arbitrary bytes as an object file: Get must either
// report ErrCorrupt and remove the file, or return a payload whose SHA-256
// is the digest its header records. It must never panic.
func FuzzStoreGet(f *testing.F) {
	f.Add(objectFile(digestOf(`{"result":42}`), 13, `{"result":42}`))
	for _, tc := range corruptObjects {
		f.Add(tc.raw)
	}
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	k := key("fuzz")
	path := filepath.Join(dir, "objects", k[:2], k[2:])
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(k)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get = %v, want nil or ErrCorrupt", err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt object not quarantined: stat = %v", err)
			}
			return
		}
		header, _, _ := bytes.Cut(raw, []byte("\n"))
		fields := strings.Fields(string(header))
		if len(fields) != 3 || fields[1] != digestOf(string(got)) {
			t.Fatalf("Get returned %q, whose digest is not the header's %q", got, header)
		}
	})
}

// TestSweepEvictsLeastRecentlyUsed fills the store past its budget and
// checks the sweep keeps the recently read objects.
func TestSweepEvictsLeastRecentlyUsed(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	s, err := Open(dir, Options{MaxBytes: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 8)
	base := time.Now().Add(-time.Hour)
	for i := range keys {
		keys[i] = key(fmt.Sprint("obj", i))
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		// Pin distinct mtimes so the LRU order is unambiguous regardless of
		// filesystem timestamp granularity.
		path := filepath.Join(dir, "objects", keys[i][:2], keys[i][2:])
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, when, when); err != nil {
			t.Fatal(err)
		}
	}
	// Shrink the budget to 3 objects' worth and sweep: the 5 oldest go.
	s.max = 3000
	removed, freed, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 5 || freed != 5000 {
		t.Fatalf("Sweep removed %d objects / %d bytes, want 5 / 5000", removed, freed)
	}
	for i, k := range keys {
		has := s.Has(k)
		if want := i >= 5; has != want {
			t.Errorf("object %d survived=%v, want %v", i, has, want)
		}
	}
	if st := s.Stats(); st.Objects != 3 || st.Bytes != 3000 {
		t.Errorf("Stats after sweep = %+v, want 3 objects / 3000 bytes", st)
	}
}

// TestPutSweepsWhenOverBudget checks the opportunistic sweep on the write
// path: a store with a tight budget stays at or under it.
func TestPutSweepsWhenOverBudget(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 1000)
	s, err := Open(t.TempDir(), Options{MaxBytes: 2500})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(key(fmt.Sprint("b", i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Bytes > 2500 {
		t.Errorf("Stats.Bytes = %d, want <= budget 2500", st.Bytes)
	}
}

// TestConcurrentHammer is the -race workout: concurrent writers and readers
// over overlapping key sets, with a budget forcing concurrent sweeps.
func TestConcurrentHammer(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		iterations = 60
		sharedKeys = 10
	)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := key(fmt.Sprint("shared", (g+i)%sharedKeys))
				doc := []byte(fmt.Sprintf(`{"k":%d}`, (g+i)%sharedKeys))
				if i%3 == 0 {
					k = key(fmt.Sprint("own", g, i))
					doc = bytes.Repeat([]byte{byte(g)}, 512)
				}
				if err := s.Put(k, doc); err != nil {
					errCh <- err
					return
				}
				if _, err := s.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
					// A concurrent sweep may evict between Put and Get;
					// anything else (corruption, IO) is a real failure.
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if _, _, err := s.Sweep(); err != nil {
		t.Error(err)
	}
}

// TestSharedDirectoryBetweenStores emulates two server processes sharing
// one -store directory: objects written through either instance are visible
// to both.
func TestSharedDirectoryBetweenStores(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := key("cross")
	if err := a.Put(k, []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get(k)
	if err != nil || !bytes.Equal(got, []byte("from-a")) {
		t.Fatalf("b.Get = %q, %v", got, err)
	}
	k2 := key("cross2")
	if err := b.Put(k2, []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Get(k2); err != nil || !bytes.Equal(got, []byte("from-b")) {
		t.Fatalf("a.Get = %q, %v", got, err)
	}
}
