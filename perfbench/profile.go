package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// foldProfile reads a runtime/pprof CPU profile and returns each package
// bucket's share of the sampled CPU time. A sample is charged to the
// package of its innermost frame. Runtime frames (memmove, the allocator,
// the collector) stay in the "runtime" bucket; other standard-library
// frames (math/rand, encoding/binary, sort, ...) are charged to the nearest
// calling frame of this repository, so trace generation's math/rand time
// counts as trace. Frames of the benchmark itself and of repository
// packages without a bucket go to "other".
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	buckets := map[string]bool{}
	for _, b := range hostPkgs {
		buckets[b] = true
	}
	sums := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		sums[p.bucket(s.locs, buckets)] += v
	}
	shares := map[string]float64{}
	for b, v := range sums {
		shares[b] = ratio(v, total)
	}
	return shares, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

// bucket names the package bucket a stack is charged to.
func (p *profile) bucket(stack []uint64, buckets map[string]bool) string {
	first := true
	for _, loc := range stack {
		for _, fn := range p.locs[loc] {
			name := ""
			if i := p.funcs[fn]; i >= 0 && int(i) < len(p.strs) {
				name = p.strs[i]
			}
			pkg := funcPackage(name)
			switch {
			case first && (pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/")):
				return "runtime"
			case pkg == "thynvm":
				return "thynvm"
			case strings.HasPrefix(pkg, "thynvm/internal/"):
				b := strings.TrimPrefix(pkg, "thynvm/internal/")
				if buckets[b] {
					return b
				}
				return "other"
			case pkg == "main" || strings.HasPrefix(pkg, "thynvm/"):
				return "other"
			}
			first = false
		}
	}
	return "other"
}

// funcPackage extracts the import path from a symbol name such as
// "thynvm/internal/cache.(*Hierarchy).fetch".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// parseProfile decodes the fields of profile.proto the fold needs.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, d)
				case 2:
					for _, x := range appendPacked(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
