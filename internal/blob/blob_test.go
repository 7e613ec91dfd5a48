package blob

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// stores builds one of each implementation over fresh backing state; the
// HTTP store is a client against a Handler over a Dir store, exactly the
// cmd/served topology.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	d, err := NewDir(filepath.Join(t.TempDir(), "cas"))
	if err != nil {
		t.Fatal(err)
	}
	backing, err := NewDir(filepath.Join(t.TempDir(), "remote"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(backing))
	t.Cleanup(srv.Close)
	return map[string]Store{"mem": NewMem(), "dir": d, "http": NewHTTP(srv.URL)}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := KeyOf("compile", "machine A", "kernel 1")
			if _, err := s.Get("compile.v2", k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on empty store = %v, want ErrNotFound", err)
			}
			want := []byte(`{"compile":"add R1, R2, R3"}`)
			if err := s.Put("compile.v2", k, want); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("compile.v2", k)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, %v; want %q", got, err, want)
			}
			// Same key, different namespace: separate entry.
			if _, err := s.Get("simulate.v2", k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("namespaces bleed: %v", err)
			}
			// Idempotent re-Put.
			if err := s.Put("compile.v2", k, want); err != nil {
				t.Fatalf("re-Put: %v", err)
			}
		})
	}
}

// TestHandlerMethods: the blob tree answers GET and PUT only; HEAD and
// every other method get 405.
func TestHandlerMethods(t *testing.T) {
	srv := httptest.NewServer(Handler(NewMem()))
	t.Cleanup(srv.Close)
	url := srv.URL + blobsPrefix + "compile.v2/" + KeyOf("methods").String()
	for _, method := range []string{http.MethodHead, http.MethodDelete, http.MethodPost} {
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s = %d, want 405", method, resp.StatusCode)
		}
	}
}

func TestStoreRejectsBadNamespace(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := KeyOf("x")
			for _, ns := range []string{"", "..", "a/b", "a b", ".hidden"} {
				if err := s.Put(ns, k, []byte("x")); err == nil {
					t.Errorf("Put accepted namespace %q", ns)
				}
			}
		})
	}
}

func TestKeyOfLengthPrefixed(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("concatenation collision")
	}
	k := KeyOf("stage", "input")
	back, err := ParseKey(k.String())
	if err != nil || back != k {
		t.Fatalf("ParseKey(String) = %v, %v", back, err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("ParseKey accepted garbage")
	}
}

func TestOpenSpecs(t *testing.T) {
	if s, err := Open("mem"); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*Mem); !ok {
		t.Fatalf("Open(mem) = %T", s)
	}
	dir := filepath.Join(t.TempDir(), "deep", "store")
	s, err := Open("dir:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Dir); !ok {
		t.Fatalf("Open(dir:) = %T", s)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("dir store root not created: %v", err)
	}
	if s, err := Open("http://localhost:1"); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*HTTP); !ok {
		t.Fatalf("Open(http://) = %T", s)
	}
	if _, err := Open("s3://bucket"); err == nil {
		t.Fatal("Open accepted unknown scheme")
	}
}

func TestStoreConcurrent(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						// Writers of the same key carry the same bytes —
						// the store contract — while distinct keys mix.
						k := KeyOf("item", fmt.Sprint(i))
						want := []byte(fmt.Sprintf("blob %d", i))
						if err := s.Put("race.test", k, want); err != nil {
							t.Error(err)
							return
						}
						got, err := s.Get("race.test", k)
						if err != nil || !bytes.Equal(got, want) {
							t.Errorf("Get(%d) = %q, %v", i, got, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestDirStoreTwoProcesses proves the cross-process contract: a writer
// process (a re-exec of this test binary) populates a directory store,
// and the reader process (this one) hits every blob.
func TestDirStoreTwoProcesses(t *testing.T) {
	root := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestDirStoreWriterProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "BLOB_TEST_WRITER_ROOT="+root)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("writer process failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("PASS")) {
		t.Fatalf("writer process did not pass:\n%s", out)
	}
	s, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := s.Get("twoproc", KeyOf("entry", fmt.Sprint(i)))
		if err != nil {
			t.Fatalf("reader miss on entry %d: %v", i, err)
		}
		var v struct{ N int }
		if err := json.Unmarshal(got, &v); err != nil || v.N != i {
			t.Fatalf("entry %d = %q, %v", i, got, err)
		}
	}
}

// TestDirStoreWriterProcess is the writer half of
// TestDirStoreTwoProcesses; it only runs when re-executed with the
// environment set.
func TestDirStoreWriterProcess(t *testing.T) {
	root := os.Getenv("BLOB_TEST_WRITER_ROOT")
	if root == "" {
		t.Skip("writer-process helper; run via TestDirStoreTwoProcesses")
	}
	s, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		data, _ := json.Marshal(struct{ N int }{i})
		if err := s.Put("twoproc", KeyOf("entry", fmt.Sprint(i)), data); err != nil {
			t.Fatal(err)
		}
	}
}
