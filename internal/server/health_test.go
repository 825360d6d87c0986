package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dytis/internal/cluster"
	"dytis/internal/core"
	"dytis/internal/server"
)

// probe hits a HealthHandler and decodes its JSON body.
func probe(t *testing.T, h http.Handler) (int, map[string]any, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q is not JSON: %v", rec.Body.String(), err)
	}
	return rec.Code, body, rec.Body.String()
}

// waitReady waits out the gap between start() returning and the Serve
// goroutine flipping the serving flag.
func waitReady(t *testing.T, srv *server.Server) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if srv.Ready() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never became ready")
}

func TestHealthzJSON(t *testing.T) {
	idx := core.New(smallOpts())
	_, srv := start(t, idx, server.Config{})
	waitReady(t, srv)

	h := server.HealthHandler(srv)
	code, body, raw := probe(t, h)
	if code != http.StatusOK {
		t.Fatalf("serving healthz = %d, want 200", code)
	}
	if body["status"] != "ok" {
		t.Fatalf(`status = %v, want "ok"`, body["status"])
	}
	// CI's liveness check greps the body for "ok"; keep that contract.
	if !strings.Contains(raw, "ok") {
		t.Fatalf("body %q does not contain the grep-able ok", raw)
	}
	// A non-cluster server reports no shard fields.
	if _, has := body["shard"]; has {
		t.Fatalf("non-cluster body has shard field: %v", body)
	}
	if _, has := body["epoch"]; has {
		t.Fatalf("non-cluster body has epoch field: %v", body)
	}
}

func TestHealthzShardFields(t *testing.T) {
	p := startShard(t, 0, ^uint64(0))
	m, err := cluster.Uniform(7, []string{p.addr})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.node.SetMap(0, ^uint64(0), m.Encode()); err != nil {
		t.Fatal(err)
	}
	waitReady(t, p.srv)

	code, body, _ := probe(t, server.HealthHandler(p.srv))
	if code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if body["status"] != "ok" {
		t.Fatalf(`status = %v, want "ok"`, body["status"])
	}
	if body["epoch"] != float64(7) {
		t.Fatalf("epoch = %v, want 7", body["epoch"])
	}
	shard, ok := body["shard"].(map[string]any)
	if !ok {
		t.Fatalf("shard field missing or malformed: %v", body)
	}
	if shard["lo"] != "0x0" || shard["hi"] != "0xffffffffffffffff" {
		t.Fatalf("shard range = %v, want 0x0..0xffffffffffffffff", shard)
	}
}

func TestHealthzDraining(t *testing.T) {
	idx := core.New(smallOpts())
	srv := server.New(server.Config{Index: idx})
	// Never served: Ready() is false both before Serve and after Shutdown.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Shutdown(ctx)

	code, body, _ := probe(t, server.HealthHandler(srv))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", code)
	}
	if body["status"] != "draining" {
		t.Fatalf(`status = %v, want "draining"`, body["status"])
	}
}
