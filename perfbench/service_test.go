package main

import (
	"crypto/sha256"
	"strings"
	"testing"
)

func TestTamperedHitBodyRejected(t *testing.T) {
	body := []byte("# kind=trial\n\ntrial   pl  vehicle ...\ntrial1  1   middle  2.8898\n")
	rec := recorded{digest: sha256.Sum256(body), size: len(body)}
	if err := verifyHit(rec, body); err != nil {
		t.Fatalf("identical body rejected: %v", err)
	}
	tampered := []byte(strings.Replace(string(body), "2.8898", "2.8899", 1))
	if err := verifyHit(rec, tampered); err == nil {
		t.Error("same-length tampered body accepted")
	}
	if err := verifyHit(rec, body[:len(body)-1]); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestVerifyFresh(t *testing.T) {
	_, header, err := canonical(trialBody(7, false))
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(header + "\ntables\n")
	if err := verifyFresh(body, len(body), header); err != nil {
		t.Fatalf("matching artifact rejected: %v", err)
	}
	if err := verifyFresh(body, len(body)+1, header); err == nil {
		t.Error("length mismatch with the stream accepted")
	}
	_, other, err := canonical(trialBody(8, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyFresh(body, len(body), other); err == nil {
		t.Error("artifact of another config accepted")
	}
}

func TestStudyProblem(t *testing.T) {
	m := func(fresh, cached float64) map[string]float64 {
		return map[string]float64{"service_rep_fresh_total": fresh, "service_rep_cached_total": cached}
	}
	if p := studyProblem(4, 12, m(10, 3), m(14, 3), m(22, 7)); p != "" {
		t.Errorf("delta-only resubmission flagged: %s", p)
	}
	for name, c := range map[string][3]map[string]float64{
		"resubmission re-ran a cached seed": {m(0, 0), m(4, 0), m(13, 3)},
		"first study recalled entries":      {m(0, 0), m(3, 1), m(11, 5)},
		"resubmission ran extra seeds":      {m(0, 0), m(4, 0), m(13, 4)},
	} {
		if studyProblem(4, 12, c[0], c[1], c[2]) == "" {
			t.Errorf("%s: not flagged", name)
		}
	}
	if studyProblem(4, 16, m(0, 0), m(4, 0), m(16, 4)) == "" {
		t.Error("wrong replication count not flagged")
	}
}

func TestStudyRows(t *testing.T) {
	art := "# header\n\nstudy text\n\nper-replication measurements:\n" +
		"  rep seed avg\n  1   11   0.1\n  2   12   0.2\n  3   13   0.3\n\ninvariant check: clean\n"
	if got := studyRows([]byte(art)); got != 3 {
		t.Errorf("studyRows = %d, want 3", got)
	}
	if got := studyRows([]byte("no table")); got != 0 {
		t.Errorf("studyRows without a table = %d, want 0", got)
	}
}

func TestParseProm(t *testing.T) {
	text := "# HELP service_cache_hits_total hits\n# TYPE service_cache_hits_total counter\n" +
		"service_cache_hits_total 42\nservice_job_seconds_bucket{le=\"1\"} 3\nservice_queue_depth 0\n"
	m, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["service_cache_hits_total"] != 42 || len(m) != 2 {
		t.Errorf("parsed %v", m)
	}
}

func TestDeriveSeedsDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for _, tag := range []uint64{tagWarm, tagMiss, tagStudy} {
		for i := uint64(0); i < 50; i++ {
			for k := uint64(0); k < svcMisses; k++ {
				s := derive(1, tag, i, k)
				if s == 0 || seen[s] {
					t.Fatalf("derive(1, %d, %d, %d) = %d repeats or is zero", tag, i, k, s)
				}
				seen[s] = true
			}
		}
	}
}
