package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/exp"
)

// refRecord is the virtual result one spec must reproduce. Seq
// checksums are not an oracle (3-D FFT and NBF/pvme differ from seq in
// the last ulp), so each record is pinned to its own committed value.
type refRecord struct {
	Key      string  `json:"key"`
	TimeNS   int64   `json:"time_ns"`
	Msgs     int64   `json:"msgs"`
	Bytes    int64   `json:"bytes"`
	Checksum float64 `json:"checksum"`
	SeqNS    int64   `json:"seq_ns,omitempty"`
}

//go:embed ref/*.json
var refFS embed.FS

// loadRef reads a workload's committed reference, keyed by spec key.
func loadRef(name string) (map[string]refRecord, error) {
	b, err := refFS.ReadFile("ref/" + name + ".json")
	if err != nil {
		return nil, err
	}
	var recs []refRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("reference %s: %w", name, err)
	}
	ref := make(map[string]refRecord, len(recs))
	for _, r := range recs {
		ref[r.Key] = r
	}
	return ref, nil
}

// checkRecord compares one stream line with the reference entry of
// the spec it must carry.
func checkRecord(line []byte, want exp.Spec, ref map[string]refRecord) error {
	rec, err := exp.ValidateLine(line)
	if err != nil {
		return err
	}
	if rec.Error != "" {
		return fmt.Errorf("%s: error record: %s", want.Key(), rec.Error)
	}
	if rec.Spec != want {
		return fmt.Errorf("record is %s, want %s", rec.Key(), want.Key())
	}
	r, ok := ref[want.Key()]
	if !ok {
		return fmt.Errorf("%s: not in the reference", want.Key())
	}
	if rec.TimeNanos != r.TimeNS || rec.Msgs != r.Msgs || rec.Bytes != r.Bytes ||
		math.Float64bits(rec.Checksum) != math.Float64bits(r.Checksum) || rec.SeqNanos != r.SeqNS {
		return fmt.Errorf("%s: got time_ns=%d msgs=%d bytes=%d checksum=%v seq_ns=%d, reference %d/%d/%d/%v/%d",
			want.Key(), rec.TimeNanos, rec.Msgs, rec.Bytes, rec.Checksum, rec.SeqNanos,
			r.TimeNS, r.Msgs, r.Bytes, r.Checksum, r.SeqNS)
	}
	return nil
}

// writeRef records a stream's virtual results as a workload reference,
// one record per line so a changed value shows as a one-line diff.
func writeRef(path string, out []byte) error {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	lines := splitLines(out)
	for i, line := range lines {
		rec, err := exp.ValidateLine(line)
		if err != nil {
			return err
		}
		if rec.Error != "" {
			return fmt.Errorf("%s: error record: %s", rec.Key(), rec.Error)
		}
		b, err := json.Marshal(refRecord{Key: rec.Key(), TimeNS: rec.TimeNanos, Msgs: rec.Msgs,
			Bytes: rec.Bytes, Checksum: rec.Checksum, SeqNS: rec.SeqNanos})
		if err != nil {
			return err
		}
		buf.Write(b)
		if i < len(lines)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// setCold makes out the stream every pass must reproduce and checks
// it against the reference, record by record.
func (b *bench) setCold(out []byte) {
	b.cold, b.coldLines = out, splitLines(out)
	b.coldBad = make([]bool, len(b.specs))
	for i, s := range b.specs {
		var err error
		if i < len(b.coldLines) {
			err = checkRecord(b.coldLines[i], s, b.ref)
		} else {
			err = fmt.Errorf("%s: missing from the cold stream", s.Key())
		}
		if err != nil {
			b.coldBad[i] = true
			report("%v", err)
		}
	}
}

// failures counts the records of one pass that fail the check: those
// that are not byte-identical to the cold stream's, those of the cold
// stream that miss the reference, and every record of a fabric pass
// that broke a pass-wide rule: it must serve every entry from the
// store, simulating nothing, and run no range on the coordinator.
func (b *bench) failures(p pass) int {
	rule := ""
	if p.fabric {
		switch entries := exp.UniqueRuns(b.specs, true); {
		case p.fleet.LocalRecords != 0:
			rule = fmt.Sprintf("%d records ran on the coordinator, not the fleet", p.fleet.LocalRecords)
		case p.sim.Dispatches != 0 || p.executed != 0:
			rule = fmt.Sprintf("simulated %d runs (%d dispatches)", p.executed, p.sim.Dispatches)
		case p.diskHits < entries:
			rule = fmt.Sprintf("served %d of %d entries from the store", p.diskHits, entries)
		}
	}
	if rule != "" {
		report("%s pass: %s", p.kind(), rule)
		return len(b.specs)
	}
	lines := b.coldLines
	if !bytes.Equal(p.out, b.cold) {
		lines = splitLines(p.out)
		report("%s pass: stream differs from the cold stream", p.kind())
	}
	if len(lines) > len(b.specs) {
		return len(b.specs)
	}
	bad := 0
	for i := range b.specs {
		if b.coldBad[i] || i >= len(lines) || !bytes.Equal(lines[i], b.coldLines[i]) {
			bad++
		}
	}
	return bad
}

// report prints a correctness problem to standard error.
func report(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hostbench: check: "+format+"\n", args...)
}

func splitLines(out []byte) [][]byte {
	if len(out) == 0 {
		return nil
	}
	return bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))
}
