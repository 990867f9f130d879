package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto
// message. The fold below needs only samples, locations and function
// names, so it decodes those few fields by hand instead of pulling in
// a profile library.

// fold is a CPU profile charged to the repo's modules.
type fold struct {
	totalNS int64
	layer   map[string]int64 // module -> CPU ns
	app     map[string]int64 // internal/apps/<app> (and fft) -> CPU ns
}

// frac is the module's share of all sampled CPU time.
func (f fold) frac(layer string) float64 {
	if f.totalNS == 0 {
		return 0
	}
	return float64(f.layer[layer]) / float64(f.totalNS)
}

const repoPrefix = "repro/internal/"

// layerOf maps a function name to the module it belongs to: the path
// element after repro/internal/, with every application package and
// the FFT library counted as "apps". Modules with no metric of their
// own fold into "other"; the benchmark's own code is "bench" (package
// main in the binary, repro/hostbench in its tests). ok is false for
// functions outside the repo (runtime, standard library).
func layerOf(fn string) (layer, app string, ok bool) {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/hostbench.") {
		return "bench", "", true
	}
	rest, found := strings.CutPrefix(fn, repoPrefix)
	if !found {
		return "", "", false
	}
	mod := rest[:strings.IndexAny(rest+".", "./")]
	switch mod {
	case "apps":
		sub := strings.TrimPrefix(rest, "apps/")
		if i := strings.IndexByte(sub, '.'); i >= 0 {
			sub = sub[:i]
		}
		if sub == "apputil" {
			sub = ""
		}
		return "apps", sub, true
	case "fft":
		return "apps", "fft3d", true
	case "sim", "tmk", "proto", "spf", "xhpf", "pvm", "exp", "store", "fabric":
		return mod, "", true
	}
	return "other", "", true
}

// foldProfile charges every sample of a gzipped CPU profile to the
// innermost repo frame on its stack; samples with no repo frame (the
// garbage collector, the Go scheduler) are charged to "gc".
func foldProfile(gz []byte) (fold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fold{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fold{}, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fold{}, err
	}
	f := fold{layer: map[string]int64{}, app: map[string]int64{}}
	valueIdx := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return fold{}, errors.New("profile: no cpu sample type")
	}
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			continue
		}
		v := s.values[valueIdx]
		f.totalNS += v
		layer, app := "gc", ""
	stack:
		for _, id := range s.locs { // leaf first
			for _, fnID := range p.locFuncs[id] { // innermost inlined call first
				if l, a, ok := layerOf(p.str(p.funcNames[fnID])); ok {
					layer, app = l, a
					break stack
				}
			}
		}
		f.layer[layer] += v
		if app != "" {
			f.app[app] += v
		}
	}
	return f, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes []int64 // string-table index of each sample type
	samples     []profSample
	locFuncs    map[uint64][]uint64 // location id -> function ids
	funcNames   map[uint64]int64    // function id -> string-table index
	strings     []string
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fValueTypeType     = 1
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := walk(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fProfileSampleType:
			return walk(data, func(n int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s profSample
			err := walk(data, func(n int, v uint64, d []byte) error {
				switch n {
				case fSampleLocation:
					return repeated(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return repeated(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(data, func(n int, v uint64, d []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return walk(d, func(n int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walk(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// walk visits each field of a protobuf message: varint fields with
// their value, length-delimited fields with their bytes (data is nil
// for varints). Fixed-width fields are skipped.
func walk(b []byte, visit func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := visit(num, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either encoding: one
// unpacked value (data nil) or a packed run.
func repeated(v uint64, data []byte, each func(uint64)) error {
	if data == nil {
		each(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		each(x)
		data = data[n:]
	}
	return nil
}
