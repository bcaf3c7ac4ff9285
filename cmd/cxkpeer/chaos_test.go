package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"xmlclust"
)

// Chaos e2e: a 4-process cluster loses one peer to SIGKILL mid-session and
// recovers — by -resume (the replacement reuses the victim's checkpoint
// store) or by -join (a storeless replacement gets the state streamed by the
// coordinator). The gate is the tentpole equivalence: final corpus-wide
// assignments AND representatives byte-identical to the uninterrupted
// in-process run.

// chaosDocs generates a randomized tie-heavy collection (three templates,
// tiny vocabulary, overlapping venues) — the regime where a nondeterministic
// recovery would diverge visibly.
func chaosDocs(docs int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	authors := []string{"alice cooper", "bob dylan", "carol king"}
	topics := []string{"mining frequent patterns", "routing wireless networks", "parsing xml streams"}
	venues := []string{"KDD", "NETCONF", "XMLPRAGUE"}
	out := make([]string, 0, docs)
	for i := 0; i < docs; i++ {
		g := rng.Intn(len(topics))
		out = append(out, fmt.Sprintf(`<db><paper key="p%d">
			<writer>%s</writer>
			<name>%s number%d</name>
			<venue>%s</venue>
		</paper></db>`, i, authors[g], topics[g], rng.Intn(3), venues[rng.Intn(len(venues))]))
	}
	return out
}

// chaosCorpus builds the chaos collection and serializes it for the peer
// processes.
func chaosCorpus(t *testing.T, dir string) (*xmlclust.Corpus, string) {
	t.Helper()
	var trees []*xmlclust.Tree
	for _, doc := range chaosDocs(32, 9) {
		tree, err := xmlclust.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	corpus := xmlclust.BuildCorpus(trees, xmlclust.CorpusOptions{})
	path := filepath.Join(dir, "corpus.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmlclust.SaveCorpus(f, corpus); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return corpus, path
}

func TestE2EChaosKillResume(t *testing.T) { runChaos(t, false) }
func TestE2EChaosKillJoin(t *testing.T)   { runChaos(t, true) }

func runChaos(t *testing.T, freshStore bool) {
	if testing.Short() {
		t.Skip("multi-process chaos e2e skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildPeerBinary(t, dir)
	corpus, corpusPath := chaosCorpus(t, dir)

	const (
		m         = 4
		k         = 4
		seed      = 1
		victim    = 2
		failRound = 2
	)
	// Delta OFF reference: the spawned peer processes run the default delta
	// engine (representative memo + digest-marker exchange), and the digest
	// comparison below must hold across modes even through crash recovery.
	ref, err := xmlclust.Cluster(corpus, xmlclust.ClusterOptions{
		K: k, F: 0.5, Gamma: 0.6, Peers: m, Seed: seed,
		DeltaRounds: xmlclust.DeltaRoundsOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rounds <= failRound {
		t.Fatalf("reference run converged in %d rounds; the failpoint at round %d would outlive the session — pick a harder corpus",
			ref.Rounds, failRound)
	}
	refDigest := xmlclust.RepsDigest(corpus, ref.Reps)

	addrs := reservePorts(t, m)
	peers := strings.Join(addrs, ",")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	ckptDirs := make([]string, m)
	repsOuts := make([]string, m)
	for id := 0; id < m; id++ {
		ckptDirs[id] = filepath.Join(dir, fmt.Sprintf("ckpt-%d", id))
		repsOuts[id] = filepath.Join(dir, fmt.Sprintf("reps-%d.txt", id))
	}

	var coordOut bytes.Buffer
	start := func(id int, extra ...string) *exec.Cmd {
		t.Helper()
		args := []string{
			"-id", fmt.Sprint(id),
			"-peers", peers,
			"-corpus", corpusPath,
			"-k", fmt.Sprint(k),
			"-f", "0.5",
			"-gamma", "0.6",
			"-seed", fmt.Sprint(seed),
			"-dial-timeout", "30s",
			// Failure detection must fire well inside the CI step budget,
			// and recovery (join + admission + fan-out) must fit inside the
			// granted windows even on a loaded runner.
			"-round-timeout", "2s",
			"-startup-timeout", "60s",
			"-recovery-windows", "4",
			"-checkpoint-dir", ckptDirs[id],
			"-reps-out", repsOuts[id],
		}
		args = append(args, extra...)
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stderr = os.Stderr
		if id == 0 {
			cmd.Stdout = &coordOut
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting peer %d: %v", id, err)
		}
		return cmd
	}

	// Followers first, coordinator last; the victim carries the failpoint
	// and SIGKILLs itself at the round-2 boundary, mid-session.
	procs := make([]*exec.Cmd, m)
	for _, id := range []int{1, 2, 3, 0} {
		var extra []string
		if id == victim {
			extra = []string{"-failpoint-round", fmt.Sprint(failRound)}
		}
		procs[id] = start(id, extra...)
	}

	// The victim must die by SIGKILL, not converge or error out.
	err = procs[victim].Wait()
	if err == nil {
		t.Fatal("victim exited cleanly; the failpoint never fired")
	}
	ws, ok := procs[victim].ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("victim did not die by SIGKILL: %v (%v)", err, procs[victim].ProcessState)
	}

	// Start the replacement. -resume restarts from the victim's surviving
	// checkpoint store; -join takes over the slot with a fresh store and
	// receives the state + partition slice from the coordinator.
	mode := "-resume"
	if freshStore {
		mode = "-join"
		ckptDirs[victim] = filepath.Join(dir, "ckpt-joiner")
	}
	replacement := start(victim, mode)

	for _, id := range []int{0, 1, 3} {
		if err := procs[id].Wait(); err != nil {
			t.Fatalf("peer %d exited with error: %v", id, err)
		}
	}
	if err := replacement.Wait(); err != nil {
		t.Fatalf("replacement exited with error: %v", err)
	}

	// Gate 1: corpus-wide assignments byte-identical to the uninterrupted
	// in-process run.
	got := make(map[int]int)
	sc := bufio.NewScanner(bytes.NewReader(coordOut.Bytes()))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var idx, cl int
		if _, err := fmt.Sscanf(line, "%d\t%d", &idx, &cl); err != nil {
			t.Fatalf("unparsable coordinator output %q: %v", line, err)
		}
		got[idx] = cl
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	assertAssignEqual(t, got, ref.Assign, mode)

	// Gate 2: every surviving process (and the replacement) converged to
	// representatives byte-identical to the reference run.
	for id := 0; id < m; id++ {
		raw, err := os.ReadFile(repsOuts[id])
		if err != nil {
			t.Fatalf("peer %d wrote no reps artifact: %v", id, err)
		}
		var gotID, gotRounds int
		var digest uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(string(raw)), "peer %d rounds %d reps %x", &gotID, &gotRounds, &digest); err != nil {
			t.Fatalf("unparsable reps artifact %q: %v", raw, err)
		}
		if digest != refDigest {
			t.Errorf("%s: peer %d representatives digest %016x, reference %016x", mode, id, digest, refDigest)
		}
	}
}
