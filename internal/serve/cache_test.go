package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/textio"
)

// cacheDoc is an odd-n instance with its honest proof, as a textio
// document.
func cacheDoc(t *testing.T) string {
	t.Helper()
	in := lcp.NewInstance(lcp.Cycle(15))
	p, err := lcp.OddNScheme().Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := textio.Write(&sb, &textio.Document{Instance: in, Proof: p, SchemeName: "odd-n"}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func serveReq(s *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// jsonBody marshals a request body; the test's maps always marshal.
func jsonBody(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

func registerEntry(t *testing.T, s *Server, doc string) *instanceEntry {
	t.Helper()
	rec := serveReq(s, http.MethodPost, "/instances", doc)
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	var info instanceInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instances[info.ID]
}

// cachedCheckers snapshots the entry's checker cache under the server
// mutex.
func cachedCheckers(s *Server, entry *instanceEntry) map[string]lcp.Checker {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]lcp.Checker, len(entry.checkers))
	for k, c := range entry.checkers {
		out[k] = c
	}
	return out
}

// waitEmpty waits for the asynchronous close that DELETE and eviction
// start to empty the entry's cache.
func waitEmpty(t *testing.T, s *Server, entry *instanceEntry, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(cachedCheckers(s, entry)) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d checkers still cached", what, len(cachedCheckers(s, entry)))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeCheckerCache: concurrent dist requests on one registered
// instance — single checks and batches, then the same under a
// partitioner override — leave exactly one cached checker per
// (backend, scheme, partitioner) key, and every later request reuses
// it, so the instance's dist network is wired once, not per request.
// DELETE and LRU eviction empty the cache; an inline-document request
// caches nothing on the server.
func TestServeCheckerCache(t *testing.T) {
	s := NewWith(lcp.BuiltinSchemes(), config.Config{}, Config{MaxInstances: 2})
	doc := cacheDoc(t)
	in, err := textio.Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	tampered := map[string]string{}
	for id, bits := range core.FlipBit(in.Proof, 3) {
		tampered[fmt.Sprint(id)] = bits.String()
	}
	entry := registerEntry(t, s, doc)

	burst := func(extra map[string]any) {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := map[string]any{"instance": entry.ID, "backend": "dist"}
				for k, v := range extra {
					req[k] = v
				}
				path := "/check"
				if i%2 == 1 {
					path = "/check/batch"
					req["proofs"] = []map[string]string{tampered, tampered}
				}
				if rec := serveReq(s, http.MethodPost, path, jsonBody(req)); rec.Code != http.StatusOK {
					t.Errorf("%s %v: %d %s", path, req, rec.Code, rec.Body)
				}
			}(i)
		}
		wg.Wait()
	}

	burst(nil)
	first := cachedCheckers(s, entry)
	if len(first) != 1 {
		t.Fatalf("after dist burst: %d cached checkers, want 1: %v", len(first), first)
	}
	burst(map[string]any{"partitioner": "bfs"})
	burst(nil)
	both := cachedCheckers(s, entry)
	if len(both) != 2 {
		t.Fatalf("after dist+bfs bursts: %d cached checkers, want 2: %v", len(both), both)
	}
	for key, chk := range first {
		if both[key] != chk {
			t.Fatalf("checker %q was rebuilt instead of reused", key)
		}
	}

	// An inline one-shot request closes its own checker and leaves the
	// server's caches as they were.
	rec := serveReq(s, http.MethodPost, "/check", jsonBody(map[string]any{"document": doc, "backend": "dist"}))
	if rec.Code != http.StatusOK {
		t.Fatalf("inline dist check: %d %s", rec.Code, rec.Body)
	}
	s.mu.Lock()
	instances := len(s.instances)
	s.mu.Unlock()
	if instances != 1 || len(cachedCheckers(s, entry)) != 2 {
		t.Fatalf("inline request changed the server: %d instances, %d cached checkers", instances, len(cachedCheckers(s, entry)))
	}

	if rec := serveReq(s, http.MethodDelete, "/instances/"+entry.ID, ""); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	waitEmpty(t, s, entry, "after DELETE")

	// Eviction: with room for two instances, registering a third drops
	// the least recently used one, whose checkers must be closed too.
	cold := registerEntry(t, s, doc)
	if rec := serveReq(s, http.MethodPost, "/check", jsonBody(map[string]any{"instance": cold.ID, "backend": "dist"})); rec.Code != http.StatusOK {
		t.Fatalf("check before eviction: %d %s", rec.Code, rec.Body)
	}
	if n := len(cachedCheckers(s, cold)); n != 1 {
		t.Fatalf("before eviction: %d cached checkers, want 1", n)
	}
	registerEntry(t, s, doc)
	registerEntry(t, s, doc)
	waitEmpty(t, s, cold, "after eviction")
}
