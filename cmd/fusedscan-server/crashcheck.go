// The crash-recovery harness behind -crashcheck: spawn this same binary
// as a fault-injected child server on a durable data directory, drive
// DDL over HTTP until an armed crash site kills the child mid-operation
// (os.Exit with no cleanup — the SIGKILL shape), then restart on the same
// directory and assert the recovery contract:
//
//   - every table whose create was acknowledged (HTTP 200, meaning the
//     snapshot and WAL record were fsynced) recovers with identical
//     contents, and
//   - the operation in flight at the kill is absent — never half-present.
//
// A final corruption leg flips a byte in one snapshot and asserts the
// quarantine story: the server starts, /healthz stays 200, the corrupt
// table answers 503 "quarantined" naming the failing column, every other
// table serves, and DELETE discards the casualty.
//
// An index leg then covers the secondary-index contract (DESIGN.md §16):
// an acknowledged CREATE INDEX survives a SIGKILL with no shutdown path
// run at all, a bit-flipped index snapshot quarantines the index only —
// the table keeps answering exactly on the scan path — and re-creating
// the index replaces the rotten snapshot and lifts the quarantine.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fusedscan/internal/faultinject"
	"fusedscan/internal/server"
	"fusedscan/internal/storage"
)

// crashSites are the durability fault points the harness kills at: the
// WAL append (before any bytes reach the log), the snapshot rename (temp
// file written, never published) and mid-snapshot column writes (torn
// temp file).
var crashSites = []string{
	faultinject.SiteWALAppend,
	faultinject.SiteSnapshotRename,
	faultinject.SiteWriteColumn,
}

func runCrashCheck(cycles int, seed int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, site := range crashSites {
		if err := crashCheckSite(exe, site, cycles, seed); err != nil {
			return fmt.Errorf("crashcheck %s: %w", site, err)
		}
		fmt.Printf("crashcheck: site %s ok (%d kill/recover cycles)\n", site, cycles)
	}
	return nil
}

// crashCheckSite runs all cycles for one fault site on one data
// directory, accumulating the acknowledged-tables oracle across crashes,
// then runs the corruption leg on the survivor state.
func crashCheckSite(exe, site string, cycles int, seed int64) error {
	dir, err := os.MkdirTemp("", "fscn-crashcheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	oracle := map[string][]string{} // table -> acknowledged column values
	seq := 0
	for cycle := 1; cycle <= cycles; cycle++ {
		// Arm the cycle-th hit of the site so the kill lands at a
		// different DDL depth each cycle.
		child, err := spawnServer(exe, dir, fmt.Sprintf("%s:%d:crash", site, cycle))
		if err != nil {
			return err
		}

		// Drive creates until one dies under the armed crash.
		crashed := false
		for i := 0; i < cycles+2 && !crashed; i++ {
			seq++
			name := fmt.Sprintf("t_%s_%03d", sanitizeSite(site), seq)
			vals := genVals(seed, site, seq)
			if err := httpCreateTable(child.url, name, vals); err != nil {
				crashed = true
			} else {
				oracle[name] = vals
			}
		}
		if !crashed {
			child.stop()
			return fmt.Errorf("cycle %d: armed fault never fired", cycle)
		}
		code, err := child.waitExit()
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if code != faultinject.CrashExitCode {
			return fmt.Errorf("cycle %d: child exited %d, want crash code %d", cycle, code, faultinject.CrashExitCode)
		}

		// Recover on the same directory and hold it to the contract.
		rec, err := spawnServer(exe, dir, "")
		if err != nil {
			return fmt.Errorf("cycle %d: recovery spawn: %w", cycle, err)
		}
		verr := verifyOracle(rec.url, oracle)
		rec.stop()
		if verr != nil {
			return fmt.Errorf("cycle %d: %w", cycle, verr)
		}
	}
	if err := corruptionLeg(exe, dir, site, seed, oracle); err != nil {
		return err
	}
	return indexLeg(exe, dir, site, seed)
}

// verifyOracle asserts the recovered server serves exactly the
// acknowledged tables, each with identical contents.
func verifyOracle(url string, oracle map[string][]string) error {
	var tl server.TablesResponse
	if err := httpGetJSON(url+"/tables", &tl); err != nil {
		return err
	}
	if len(tl.Quarantined) != 0 {
		return fmt.Errorf("recovery quarantined %v with no corruption", tl.Quarantined)
	}
	listed := map[string]bool{}
	for _, n := range tl.Tables {
		listed[n] = true
		if _, acked := oracle[n]; !acked {
			return fmt.Errorf("unacknowledged table %q recovered", n)
		}
	}
	for name, vals := range oracle {
		if !listed[name] {
			return fmt.Errorf("acknowledged table %q lost", name)
		}
		got, err := httpSelectAll(url, name)
		if err != nil {
			return fmt.Errorf("table %q: %w", name, err)
		}
		if len(got) != len(vals) {
			return fmt.Errorf("table %q: %d rows recovered, want %d", name, len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				return fmt.Errorf("table %q row %d: %q recovered, want %q", name, i, got[i], vals[i])
			}
		}
	}
	return nil
}

// corruptionLeg flips one byte in an acknowledged snapshot and asserts
// the degraded-restart contract.
func corruptionLeg(exe, dir, site string, seed int64, oracle map[string][]string) error {
	// Guarantee a healthy witness table alongside the victim.
	setup, err := spawnServer(exe, dir, "")
	if err != nil {
		return err
	}
	witness := "witness_" + sanitizeSite(site)
	witnessVals := genVals(seed, site, 1<<20)
	if err := httpCreateTable(setup.url, witness, witnessVals); err != nil {
		setup.stop()
		return fmt.Errorf("creating witness: %w", err)
	}
	victim := "victim_" + sanitizeSite(site)
	victimVals := genVals(seed, site, 1<<21)
	if err := httpCreateTable(setup.url, victim, victimVals); err != nil {
		setup.stop()
		return fmt.Errorf("creating victim: %w", err)
	}
	setup.stop()

	// Flip a byte in the victim's snapshot.
	snap := filepath.Join(dir, storage.TablesDir, storage.SnapshotFileName(victim))
	data, err := os.ReadFile(snap)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		return err
	}

	srv, err := spawnServer(exe, dir, "")
	if err != nil {
		return fmt.Errorf("corrupted restart: %w", err)
	}
	defer srv.stop()

	// The process is healthy.
	var hz map[string]any
	if err := httpGetJSON(srv.url+"/healthz", &hz); err != nil {
		return fmt.Errorf("healthz with corrupt snapshot: %w", err)
	}
	// The victim answers 503 with the quarantine taxonomy, naming the
	// failing column.
	status, body, err := httpQueryRaw(srv.url, "SELECT COUNT(*) FROM "+victim+" WHERE a >= 0")
	if err != nil {
		return err
	}
	if status != http.StatusServiceUnavailable {
		return fmt.Errorf("corrupt table answered %d (%s), want 503", status, body)
	}
	var er server.ErrorResponse
	if json.Unmarshal([]byte(body), &er) != nil || er.Code != "quarantined" {
		return fmt.Errorf("corrupt table error %q, want code quarantined", body)
	}
	if !strings.Contains(er.Error, "column") {
		return fmt.Errorf("quarantine error does not name a column: %q", er.Error)
	}
	// Every healthy table still serves, contents intact.
	healthy := map[string][]string{witness: witnessVals}
	for n, v := range oracle {
		healthy[n] = v
	}
	for name, vals := range healthy {
		got, err := httpSelectAll(srv.url, name)
		if err != nil {
			return fmt.Errorf("healthy table %q with quarantine active: %w", name, err)
		}
		if len(got) != len(vals) {
			return fmt.Errorf("healthy table %q: %d rows, want %d", name, len(got), len(vals))
		}
	}
	// The quarantine is visible in /varz ...
	var vz server.VarzResponse
	if err := httpGetJSON(srv.url+"/varz", &vz); err != nil {
		return err
	}
	if !vz.Engine.Durable || vz.Engine.TablesQuarantined < 1 {
		return fmt.Errorf("varz does not report the quarantine: %+v", vz.Engine)
	}
	// ... and the casualty can be discarded.
	req, _ := http.NewRequest(http.MethodDelete, srv.url+"/tables/"+victim, nil)
	resp, err := harnessClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dropping quarantined table: %d", resp.StatusCode)
	}
	return nil
}

// indexLeg asserts the secondary-index durability contract on the
// surviving directory: an acknowledged CREATE INDEX recovers after a
// SIGKILL (no graceful shutdown), a bit-flipped index snapshot
// quarantines the index only — queries fall back to the scan path with
// exact results — and re-creating the index lifts the quarantine.
func indexLeg(exe, dir, site string, seed int64) error {
	// A dedicated table big enough that the cost model genuinely prefers
	// the index for a point lookup (the corruption leg's witness is a few
	// hundred rows — small enough that scanning it is the right plan).
	witness := "itable_" + sanitizeSite(site)
	const itableRows = 1 << 16
	vals := make([]string, itableRows)
	var want int64
	const needle = "42"
	for i := range vals {
		vals[i] = strconv.Itoa(i % 4099)
		if vals[i] == needle {
			want++
		}
	}
	point := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE a = %s", witness, needle)

	checkPoint := func(url, when string, wantIndex bool) error {
		status, body, err := httpQueryRaw(url, point)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: point query answered %d (%s)", when, status, body)
		}
		var qr server.QueryResponse
		if err := json.Unmarshal([]byte(body), &qr); err != nil {
			return err
		}
		if qr.Count != want {
			return fmt.Errorf("%s: point query count = %d, want %d", when, qr.Count, want)
		}
		var vz server.VarzResponse
		if err := httpGetJSON(url+"/varz", &vz); err != nil {
			return err
		}
		if wantIndex && vz.Engine.IndexScans == 0 {
			return fmt.Errorf("%s: query did not use the recovered index", when)
		}
		if !wantIndex && vz.Engine.IndexScans != 0 {
			return fmt.Errorf("%s: a quarantined index served a query", when)
		}
		return nil
	}

	// Register the table, acknowledge the CREATE INDEX, then die with no
	// cleanup at all.
	srv, err := spawnServer(exe, dir, "")
	if err != nil {
		return err
	}
	if err := httpCreateTable(srv.url, witness, vals); err != nil {
		srv.stop()
		return fmt.Errorf("creating index-leg table: %w", err)
	}
	status, body, err := httpQueryRaw(srv.url, fmt.Sprintf("CREATE INDEX ON %s (a)", witness))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		srv.stop()
		return fmt.Errorf("CREATE INDEX answered %d (%s)", status, body)
	}
	srv.cmd.Process.Kill()
	srv.cmd.Wait()

	// The acknowledged index recovers and serves.
	srv, err = spawnServer(exe, dir, "")
	if err != nil {
		return fmt.Errorf("restart after index kill: %w", err)
	}
	var vz server.VarzResponse
	if err := httpGetJSON(srv.url+"/varz", &vz); err != nil {
		srv.stop()
		return err
	}
	if vz.Engine.Indexes < 1 || vz.Engine.IndexesQuarantined != 0 {
		srv.stop()
		return fmt.Errorf("after kill: indexes=%d quarantined=%d, want the acknowledged index live",
			vz.Engine.Indexes, vz.Engine.IndexesQuarantined)
	}
	if err := checkPoint(srv.url, "after kill", true); err != nil {
		srv.stop()
		return err
	}
	srv.stop()

	// Rot the index snapshot: only the index quarantines; the table —
	// and its exact answers — survive on the scan path.
	idx := filepath.Join(dir, storage.TablesDir, storage.IndexFileName(witness, "a"))
	data, err := os.ReadFile(idx)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(idx, data, 0o644); err != nil {
		return err
	}
	srv, err = spawnServer(exe, dir, "")
	if err != nil {
		return fmt.Errorf("restart with corrupt index: %w", err)
	}
	defer srv.stop()
	var hz map[string]any
	if err := httpGetJSON(srv.url+"/healthz", &hz); err != nil {
		return fmt.Errorf("healthz with corrupt index: %w", err)
	}
	var tl server.TablesResponse
	if err := httpGetJSON(srv.url+"/tables", &tl); err != nil {
		return err
	}
	if len(tl.Quarantined) != 0 {
		return fmt.Errorf("index corruption quarantined tables: %v", tl.Quarantined)
	}
	if err := httpGetJSON(srv.url+"/varz", &vz); err != nil {
		return err
	}
	if vz.Engine.IndexesQuarantined < 1 {
		return fmt.Errorf("corrupt index not quarantined: %+v", vz.Engine)
	}
	if err := checkPoint(srv.url, "with corrupt index", false); err != nil {
		return err
	}

	// Re-creating the index replaces the rotten snapshot and lifts the
	// quarantine.
	status, body, err = httpQueryRaw(srv.url, fmt.Sprintf("CREATE INDEX ON %s (a)", witness))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("re-CREATE INDEX answered %d (%s)", status, body)
	}
	if err := httpGetJSON(srv.url+"/varz", &vz); err != nil {
		return err
	}
	if vz.Engine.IndexesQuarantined != 0 || vz.Engine.Indexes < 1 {
		return fmt.Errorf("quarantine not lifted by re-create: %+v", vz.Engine)
	}
	return checkPoint(srv.url, "after re-create", true)
}

// ---------------------------------------------------------------------------
// Child process management.

type childServer struct {
	cmd *exec.Cmd
	url string
}

// spawnServer starts this binary as a durable child server on dir with
// an optional armed fault, waiting until it publishes its port.
func spawnServer(exe, dir, fault string) (*childServer, error) {
	pf := filepath.Join(dir, "port")
	os.Remove(pf)
	args := []string{
		"-nodemo", "-data", dir, "-addr", "127.0.0.1:0", "-portfile", pf,
		"-scrub-interval", "-1s", "-timeout", "10s",
	}
	if fault != "" {
		args = append(args, "-fault", fault)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childProcAttr()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(pf); err == nil && len(b) > 0 {
			return &childServer{cmd: cmd, url: "http://" + strings.TrimSpace(string(b))}, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()
	return nil, fmt.Errorf("child server never published its port")
}

// childExitTimeout bounds every wait for a child to exit on its own.
const childExitTimeout = 10 * time.Second

// wait reaps the child, killing it first if it has not exited within
// childExitTimeout; exited reports whether it exited on its own.
func (c *childServer) wait() (exited bool, err error) {
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return true, err
	case <-time.After(childExitTimeout):
		c.cmd.Process.Kill()
		return false, <-done
	}
}

// waitExit reaps a child whose armed crash has fired and returns its exit
// code. A child still running after childExitTimeout is killed and
// reported as an error.
func (c *childServer) waitExit() (int, error) {
	exited, err := c.wait()
	if !exited {
		return -1, fmt.Errorf("child did not exit within %s of its armed crash; killed it", childExitTimeout)
	}
	if err == nil {
		return 0, nil
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), nil
	}
	return -1, nil
}

// stop shuts the child down gracefully (SIGTERM), escalating to SIGKILL
// if it does not exit in time.
func (c *childServer) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	c.wait()
}

// ---------------------------------------------------------------------------
// HTTP driving.

var harnessClient = &http.Client{Timeout: 10 * time.Second}

func httpCreateTable(url, name string, vals []string) error {
	body, _ := json.Marshal(server.CreateTableRequest{
		Name:    name,
		Columns: []server.ColumnSpec{{Name: "a", Values: vals}},
	})
	resp, err := harnessClient.Post(url+"/tables", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("create %s: status %d", name, resp.StatusCode)
	}
	return nil
}

// httpSelectAll returns every value of column a, in row order.
func httpSelectAll(url, table string) ([]string, error) {
	status, body, err := httpQueryRaw(url, "SELECT a FROM "+table+" WHERE a >= 0")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("select: status %d (%s)", status, body)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(qr.Rows))
	for _, row := range qr.Rows {
		if len(row) != 1 {
			return nil, fmt.Errorf("ragged row %v", row)
		}
		out = append(out, row[0])
	}
	return out, nil
}

func httpQueryRaw(url, sql string) (int, string, error) {
	body, _ := json.Marshal(server.QueryRequest{SQL: sql, Config: "native"})
	resp, err := harnessClient.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return resp.StatusCode, sb.String(), nil
}

func httpGetJSON(url string, into any) error {
	resp, err := harnessClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// genVals renders a deterministic value set for one table: the oracle and
// the recovered server must agree exactly.
func genVals(seed int64, site string, seq int) []string {
	h := int64(0)
	for _, c := range site {
		h = h*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed ^ h ^ int64(seq)<<17))
	vals := make([]string, 50+rng.Intn(150))
	for i := range vals {
		vals[i] = strconv.Itoa(rng.Intn(1000))
	}
	return vals
}

func sanitizeSite(site string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(site)
}
