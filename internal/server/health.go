package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// healthBody is the /healthz response document. Status is "ok" while the
// server serves and "draining" once Shutdown began; the cluster fields
// appear only on shard servers.
type healthBody struct {
	Status string       `json:"status"`
	Epoch  uint64       `json:"epoch,omitempty"`
	Shard  *healthShard `json:"shard,omitempty"`
}

type healthShard struct {
	Lo string `json:"lo"`
	Hi string `json:"hi"`
}

// HealthHandler serves s's readiness probe: HTTP 200 with a small JSON body
// while the server is accepting and serving, 503 once it drains — the same
// status contract the pre-cluster text endpoint had, so orchestration
// probes keep working unchanged. A shard server (Config.Cluster set) adds
// its owned range and map epoch; a standalone server reports neither.
func HealthHandler(s *Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := healthBody{Status: "ok"}
		code := http.StatusOK
		if !s.Ready() {
			body.Status, code = "draining", http.StatusServiceUnavailable
		}
		if node := s.cfg.Cluster; node != nil {
			lo, hi, epoch, _ := node.Info()
			body.Epoch = epoch
			body.Shard = &healthShard{Lo: fmt.Sprintf("%#x", lo), Hi: fmt.Sprintf("%#x", hi)}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(body)
	})
}
