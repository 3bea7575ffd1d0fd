package shm

import "time"

// Encryption support: §6 of the paper proposes hardening the shared-memory
// channel by encrypting it with the client's key, so that a malicious
// co-resident entity that gains access to the mapping cannot read or
// tamper with payloads. This implements that proposal as a region option:
// payloads are enciphered as they enter the region and deciphered as they
// leave, with the cipher cost charged to the copying process.
//
// The cipher is a keystream XOR (xorshift64* keyed per slot) — a stand-in
// with real byte transformation so that data at rest in the region is
// never plaintext; a production build would swap in AES-GCM.

// EnableEncryption turns on channel encryption with the given key and
// cipher throughput (bytes/second, e.g. ~1.5 GB/s for single-core
// AES-GCM without dedicated offload).
func (r *Region) EnableEncryption(key uint64, cipherBytesPerSec float64) {
	r.encKey = key | 1 // keystream seed must be nonzero
	r.encBps = cipherBytesPerSec
}

// Encrypted reports whether the region enciphers payloads.
func (r *Region) Encrypted() bool { return r.encKey != 0 }

// cryptoCost returns the modeled time to encipher or decipher n bytes.
func (r *Region) cryptoCost(n int) time.Duration {
	if r.encKey == 0 || r.encBps <= 0 {
		return 0
	}
	return time.Duration(float64(n) / r.encBps * 1e9)
}

// keystream fills buf with the xorshift64* stream for (key, slot).
func xorKeystream(buf []byte, key, slot uint64) {
	x := key ^ (slot+1)*0x9E3779B97F4A7C15
	for i := 0; i < len(buf); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		s := x * 0x2545F4914F6CDD1D
		for j := 0; j < 8 && i+j < len(buf); j++ {
			buf[i+j] ^= byte(s >> (8 * j))
		}
	}
}

// seal enciphers the first n bytes of the slot in place.
func (s Slot) seal(n int) {
	if !s.r.Encrypted() {
		return
	}
	xorKeystream(s.Bytes()[:n], s.r.encKey, uint64(s.Index)|uint64(s.dir)<<32)
}

// unseal deciphers the first n bytes (XOR keystream is an involution).
func (s Slot) unseal(n int) { s.seal(n) }
