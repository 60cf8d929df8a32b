package lsm

// bloom is a classic double-hashing Bloom filter, as RocksDB builds per
// SSTable (block-based filter policy).
type bloom struct {
	bits []byte
	k    int
}

// newBloomFromHashes builds a filter sized at bitsPerKey for the keys whose
// first hashes (bloomHash) are given.
func newBloomFromHashes(hashes []uint64, bitsPerKey int) bloom {
	if bitsPerKey < 1 {
		bitsPerKey = 10
	}
	nBits := len(hashes) * bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	b := bloom{bits: make([]byte, (nBits+7)/8), k: bitsPerKey * 69 / 100} // ln2 ≈ 0.69
	if b.k < 1 {
		b.k = 1
	}
	if b.k > 30 {
		b.k = 30
	}
	for _, h1 := range hashes {
		b.add(h1, secondHash(h1))
	}
	return b
}

// bloomFromBytes restores a serialized filter.
func bloomFromBytes(data []byte, k int) bloom { return bloom{bits: data, k: k} }

// bloomHash is 64-bit FNV-1a over the key, and the second hash derived
// from it.
func bloomHash(key string) (uint64, uint64) {
	h1 := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h1 = (h1 ^ uint64(key[i])) * 1099511628211
	}
	return h1, secondHash(h1)
}

func secondHash(h1 uint64) uint64 {
	h2 := h1>>33 | h1<<31
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h2
}

func (b *bloom) add(h1, h2 uint64) {
	n := uint64(len(b.bits)) * 8
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

// mayContain reports whether key is possibly in the set.
func (b *bloom) mayContain(key string) bool {
	if len(b.bits) == 0 {
		return true
	}
	h1, h2 := bloomHash(key)
	n := uint64(len(b.bits)) * 8
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
