package arm64

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// strideWords is the number of words TestCodecStride and
// TestRowsAgainstISA visit: w = k·strideMul for k < strideWords. The odd
// multiplier spreads them over all 2³² words, every opcode field included.
const (
	strideWords = 1 << 24
	strideMul   = 0x9E3779B1
)

// strideHash is the codec's fingerprint over the stride words, recorded
// from the hand-written decoder and encoder that the encoding table
// replaced. Any change to the accept set, a decoded field or an encoded
// word moves it.
const strideHash = "346091affdd0b69d"

// TestCodecStride pins Decode and Encode word for word: for each stride
// word it hashes the word, the decode verdict and every Inst and Mem
// field, and Encode's word or error for what decoded.
func TestCodecStride(t *testing.T) {
	h := fnv.New64a()
	var buf [64]byte
	decoded, reencoded := 0, 0
	var inst Inst
	for k := uint32(0); k < strideWords; k++ {
		w := k * strideMul
		b := binary.LittleEndian.AppendUint32(buf[:0], w)
		if err := DecodeInto(w, &inst); err != nil {
			b = append(b, 0)
			h.Write(b)
			continue
		}
		decoded++
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint16(b, uint16(inst.Op))
		for _, r := range [...]Reg{inst.Rd, inst.Rn, inst.Rm, inst.Ra, inst.Mem.Base, inst.Mem.Index} {
			b = binary.LittleEndian.AppendUint16(b, uint16(r))
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(inst.Imm))
		b = append(b, byte(inst.Ext), byte(inst.Amount), byte(inst.Cond), byte(inst.Mem.Mode), byte(inst.Mem.Amount))
		b = binary.LittleEndian.AppendUint32(b, uint32(inst.Mem.Imm))
		b = append(b, byte(len(inst.Label)))
		enc, err := Encode(&inst)
		if err != nil {
			b = append(b, err.Error()...)
		} else {
			reencoded++
			b = binary.LittleEndian.AppendUint32(b, enc)
		}
		h.Write(b)
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	t.Logf("%d of %d words decode, %d re-encode", decoded, strideWords, reencoded)
	if got != strideHash {
		t.Errorf("codec hash %s, want %s", got, strideHash)
	}
}
