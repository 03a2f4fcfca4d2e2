package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// WeightsSHA256 fingerprints everything Fit learned — each layer's weights
// then biases, then the standardization statistics — by exact bit pattern.
func (n *Network) WeightsSHA256() string {
	h := sha256.New()
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, l := range n.layers {
		put(l.w...)
		put(l.b...)
	}
	put(n.inMean...)
	put(n.inStd...)
	put(n.outMean, n.outStd)
	return hex.EncodeToString(h.Sum(nil))
}
