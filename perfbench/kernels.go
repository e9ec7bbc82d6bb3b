package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/crc"
	"repro/internal/hdlc"
	"repro/internal/ppp"
)

// The traced run replays a workload's recorded wire stream, and the
// frame bodies in it, through the low-level kernels under the Link:
// the CRC fold, HDLC stuffing, the fused tokenizer, and PPP frame
// encode/decode.

// replayConfig is the data framing the Links negotiate with their
// default LinkConfig: FCS-32, no header compression, no ACCM.
var replayConfig = ppp.Config{FCS: crc.FCS32Mode}

// sample is one recorded a→z wire stream and the frames it carries.
type sample struct {
	chunks [][]byte    // wire octets as the link emitted them
	bodies [][]byte    // destuffed frame bodies, FCS included
	frames []ppp.Frame // decoded bodies; payloads alias bodies
	wire   int         // wire octets
	body   int         // body octets
}

// newSample delineates and decodes chunks; every frame in a recorded
// stream must be intact.
func newSample(chunks [][]byte) (*sample, error) {
	s := &sample{chunks: chunks}
	tk := hdlc.Tokenizer{FCS: replayConfig.FCS}
	var toks []hdlc.Token
	for _, c := range chunks {
		s.wire += len(c)
		toks = tk.Feed(toks[:0], c)
		for _, tok := range toks {
			if tok.Err != nil || !tok.FCSOK {
				return nil, fmt.Errorf("recorded wire stream holds a damaged frame (%v)", tok.Err)
			}
			b := bytes.Clone(tok.Body)
			var f ppp.Frame
			if err := ppp.DecodeVerifiedBodyInto(&f, b, replayConfig); err != nil {
				return nil, fmt.Errorf("recorded frame does not decode: %w", err)
			}
			s.bodies = append(s.bodies, b)
			s.frames = append(s.frames, f)
			s.body += len(b)
		}
	}
	if len(s.frames) == 0 {
		return nil, fmt.Errorf("recorded wire stream holds no frames")
	}
	return s, nil
}

// sink keeps kernel results live so the compiler cannot drop the calls.
var sink uint64

// timePasses runs pass until at least d has gone by (at least once,
// after one untimed warm-up pass) and returns ns per pass.
func timePasses(d time.Duration, pass func()) float64 {
	pass()
	n, t0 := 0, clock()
	for n == 0 || clock()-t0 < int64(d) {
		pass()
		n++
	}
	return float64(clock()-t0) / float64(n)
}

// replayKernels times each kernel over s for d/5 and adds the
// per-kernel metrics to m.
func replayKernels(s *sample, d time.Duration, m map[string]float64) {
	d /= 5
	fcs := replayConfig.FCS
	bodyKB, wireKB, frames := float64(s.body)/1e3, float64(s.wire)/1e3, float64(len(s.frames))

	m["crc.ns_per_kb"] = timePasses(d, func() {
		for _, b := range s.bodies {
			sink += uint64(fcs.Update(fcs.Init(), b))
		}
	}) / bodyKB

	var dst []byte
	m["hdlc.stuff_ns_per_kb"] = timePasses(d, func() {
		for _, b := range s.bodies {
			dst = hdlc.StuffSWAR(dst[:0], b, replayConfig.ACCM)
		}
		sink += uint64(len(dst))
	}) / bodyKB

	tk := hdlc.Tokenizer{FCS: fcs}
	var toks []hdlc.Token
	m["hdlc.tokenize_ns_per_kb"] = timePasses(d, func() {
		for _, c := range s.chunks {
			toks = tk.Feed(toks[:0], c)
		}
		sink += tk.Frames
	}) / wireKB

	m["ppp.append_ns_per_frame"] = timePasses(d, func() {
		for i := range s.frames {
			dst = ppp.AppendFrame(dst[:0], &s.frames[i], replayConfig, true)
		}
		sink += uint64(len(dst))
	}) / frames

	var f ppp.Frame
	m["ppp.decode_ns_per_frame"] = timePasses(d, func() {
		for _, b := range s.bodies {
			if ppp.DecodeVerifiedBodyInto(&f, b, replayConfig) == nil {
				sink++
			}
		}
	}) / frames

	m["hdlc.expansion"] = float64(s.wire) / float64(s.body)
}
