package perturb_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"perturb"
	"perturb/internal/server"
)

// The service golden pins the perturbd wire format: the exact JSON the
// daemon returns for the canonical DOACROSS trace under the golden
// calibration. CI's service-smoke job diffs a live daemon's response
// against the same file, so a drift here is a wire-format break, not a
// cosmetic change. Regenerate together with the other goldens:
//
//	go test -run TestGolden -update .

const serviceGoldenName = "service_analyze"

// serviceGoldenQuery carries goldenCal as /analyze query parameters; keep
// in sync with goldenCal and with the CI smoke job's curl.
const serviceGoldenQuery = "event=100&advance=100&awaitb=100&awaite=100&snowait=50&swait=80&advanceop=30&barrier=40"

// serviceGoldenResponse runs one in-process daemon request: the golden
// DOACROSS trace in the binary codec against the golden calibration.
func serviceGoldenResponse(t *testing.T) []byte {
	t.Helper()
	srv := httptest.NewServer(server.New(server.Config{}).Handler())
	defer srv.Close()

	body := encodeBinary(t, goldenTraces()["doacross"])
	resp, err := http.Post(srv.URL+"/v1/analyze?"+serviceGoldenQuery,
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("service returned %d: %s", resp.StatusCode, got)
	}
	return got
}

// TestGoldenServiceUpdate rewrites the service golden when -update is set.
func TestGoldenServiceUpdate(t *testing.T) {
	if !*update {
		t.Skip("pass -update to regenerate golden files")
	}
	if err := os.WriteFile(goldenPath(serviceGoldenName, ".json"), serviceGoldenResponse(t), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenService pins the service response byte for byte and checks it
// is coherent JSON whose numbers match the direct in-process analysis.
func TestGoldenService(t *testing.T) {
	want := readGolden(t, serviceGoldenName, ".json")
	got := serviceGoldenResponse(t)
	if !bytes.Equal(got, want) {
		t.Errorf("service response drifted from %s:\n%s\nwant:\n%s",
			goldenPath(serviceGoldenName, ".json"), got, want)
	}

	var decoded server.Response
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatalf("service golden is not valid JSON: %v", err)
	}
	approx, err := perturb.Analyze(goldenTraces()["doacross"], goldenCal(), perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Duration != approx.Duration ||
		decoded.WaitsKept != approx.WaitsKept ||
		decoded.WaitsRemoved != approx.WaitsRemoved ||
		decoded.WaitsIntroduced != approx.WaitsIntroduced {
		t.Errorf("service golden summary %+v disagrees with direct analysis (duration=%d kept=%d removed=%d introduced=%d)",
			decoded, approx.Duration, approx.WaitsKept, approx.WaitsRemoved, approx.WaitsIntroduced)
	}
}
