package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

func testService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Drain(context.Background())
	})
	return svc, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestHTTPSyncQuery drives the whole front end: sync query, budget
// endpoint, replenish, metrics, healthz.
func TestHTTPSyncQuery(t *testing.T) {
	cfg, _, _, _ := fakePool(time.Millisecond)
	cfg.Tenants = map[string]float64{"regulator": 0.5}
	cfg.DefaultIterations = 3
	_, srv := testService(t, cfg)

	// Sync query (default wait=true).
	resp, body := postJSON(t, srv.URL+"/v1/queries", map[string]any{"tenant": "regulator", "epsilon": 0.2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync query: %d %s", resp.StatusCode, body)
	}
	var q queryWire
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("decoding response %s: %v", body, err)
	}
	if q.Status != StateDone || q.Value == nil || q.Epsilon != 0.2 || q.Iterations != 3 {
		t.Errorf("sync response %+v, want done with value, ε=0.2, iterations=3", q)
	}
	// The report object's key set is API, rendered from the phase table.
	keys := make([]string, 0, len(q.Report))
	for k := range q.Report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := "agg_ms bytes compute_ms init_ms nodes transfer_ms transport wall_ms"; strings.Join(keys, " ") != want {
		t.Errorf("report keys %q, want %q", strings.Join(keys, " "), want)
	}

	// Budget endpoint reflects the charge.
	resp, body = getBody(t, srv.URL+"/v1/tenants/regulator/budget")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget: %d %s", resp.StatusCode, body)
	}
	var b budgetWire
	json.Unmarshal(body, &b)
	if b.Remaining == nil || math.Abs(b.Spent-0.2) > 1e-9 || math.Abs(*b.Remaining-0.3) > 1e-9 {
		t.Errorf("budget %+v, want spent 0.2 remaining 0.3", b)
	}

	// Exhaust: the next 0.4 query must be refused with 429.
	resp, body = postJSON(t, srv.URL+"/v1/queries", map[string]any{"tenant": "regulator", "epsilon": 0.4})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overspend query: %d %s, want 429", resp.StatusCode, body)
	}

	// Replenish (the §4.5 annual reset), then the query fits again.
	resp, body = postJSON(t, srv.URL+"/v1/tenants/regulator/replenish", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replenish: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &b)
	if b.Spent != 0 {
		t.Errorf("replenished budget %+v, want spent 0", b)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/queries", map[string]any{"tenant": "regulator", "epsilon": 0.4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after replenish: %d", resp.StatusCode)
	}

	// Unknown tenant: 403 on submit, 404 on budget.
	resp, _ = postJSON(t, srv.URL+"/v1/queries", map[string]any{"tenant": "ghost", "epsilon": 0.1})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("unknown-tenant submit: %d, want 403", resp.StatusCode)
	}
	resp, _ = getBody(t, srv.URL+"/v1/tenants/ghost/budget")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-tenant budget: %d, want 404", resp.StatusCode)
	}

	// Metrics and healthz.
	resp, body = getBody(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"dstress_queries_served_total 2",
		"dstress_queries_refused_total 2",
		"dstress_pool_sessions 1",
		"dstress_epsilon_charged_total 0.6",
		`dstress_phase_latency_seconds_count{phase="init"} 2`,
		`dstress_phase_latency_seconds_count{phase="compute"} 2`,
		`dstress_phase_latency_seconds_count{phase="communicate"} 2`,
		`dstress_phase_latency_seconds_count{phase="aggregate"} 2`,
		`dstress_phase_latency_seconds_count{phase="wall"} 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
	resp, body = getBody(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
}

// TestHTTPAsyncQuery submits with wait=false and polls the status URL.
func TestHTTPAsyncQuery(t *testing.T) {
	cfg, _, _, _ := fakePool(20 * time.Millisecond)
	cfg.DefaultBudget = 10
	cfg.DefaultEpsilon = 0.1
	_, srv := testService(t, cfg)

	resp, body := postJSON(t, srv.URL+"/v1/queries", map[string]any{"tenant": "a", "wait": false})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s, want 202", resp.StatusCode, body)
	}
	var q queryWire
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.ID == "" || (q.Status != StateQueued && q.Status != StateRunning) {
		t.Fatalf("async response %+v", q)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = getBody(t, srv.URL+"/v1/queries/"+q.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", resp.StatusCode, body)
		}
		json.Unmarshal(body, &q)
		if q.Status == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never finished: %+v", q)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if q.Value == nil || q.Epsilon != 0.1 {
		t.Errorf("final status %+v, want value and default ε=0.1", q)
	}

	// Unknown id → 404.
	resp, _ = getBody(t, srv.URL+"/v1/queries/q-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown query id: %d, want 404", resp.StatusCode)
	}
}

// TestHTTPUnmeteredBudget: a +Inf default budget must render as a valid
// JSON body (unmetered flag, no Inf values), not a 200 with no content.
func TestHTTPUnmeteredBudget(t *testing.T) {
	cfg, _, _, _ := fakePool(0)
	cfg.DefaultBudget = math.Inf(1)
	cfg.DefaultEpsilon = 0.1
	_, srv := testService(t, cfg)

	resp, body := postJSON(t, srv.URL+"/v1/queries", map[string]any{"tenant": "anyone"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query on unmetered service: %d %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, srv.URL+"/v1/tenants/anyone/budget")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("unmetered budget: %d, body %q", resp.StatusCode, body)
	}
	var b budgetWire
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatalf("unmetered budget body %q does not decode: %v", body, err)
	}
	if !b.Unmetered || b.Budget != nil || math.Abs(b.Spent-0.1) > 1e-9 {
		t.Errorf("unmetered budget wire %+v, want unmetered with spent 0.1", b)
	}
}

// TestHTTPDrainingRefuses: once draining, healthz flips to 503 and
// submissions are refused with 503.
func TestHTTPDrainingRefuses(t *testing.T) {
	cfg, _, _, _ := fakePool(time.Millisecond)
	cfg.DefaultBudget = math.Inf(1)
	cfg.AllowUnnoised = true
	svc, srv := testService(t, cfg)
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, _ := getBody(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	resp, body := postJSON(t, srv.URL+"/v1/queries", map[string]any{"tenant": "a"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d %s, want 503", resp.StatusCode, body)
	}
	var e map[string]string
	json.Unmarshal(body, &e)
	if !strings.Contains(e["error"], "draining") {
		t.Errorf("draining error body %q lacks a clear message", e["error"])
	}
}

// TestHTTPBadRequests: malformed JSON and unknown fields are 400s.
func TestHTTPBadRequests(t *testing.T) {
	cfg, _, _, _ := fakePool(0)
	cfg.DefaultBudget = 10
	cfg.DefaultEpsilon = 0.1
	_, srv := testService(t, cfg)

	resp, err := http.Post(srv.URL+"/v1/queries", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/queries", map[string]any{"tenant": "a", "bogus": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", resp.StatusCode)
	}
}
