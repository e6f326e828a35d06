//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! Predis's safety proofs (Theorems 3.1-3.3) rest on a collision-resistant
//! hash; we implement the real SHA-256 compression function rather than a
//! toy hash so that the consistency tests exercise genuine preimage
//! structure: 512-bit blocks, 64 rounds, Merkle-Damgård padding.
//!
//! All hashing goes through one seam, `Backend::compress_blocks`, with two
//! implementations chosen from what the CPU reports ([`backend`]): the
//! x86-64 SHA extensions where present, the portable code everywhere else
//! (and as the reference the tests compare against). Around the seam the
//! module is shaped for what the simulator hashes — almost only messages of
//! at most 64 bytes (DESIGN.md §8): [`sha256`] pads on the stack with no
//! hasher state, `sha256_64` (behind [`Hash::combine`](crate::Hash::combine))
//! knows its second block is a constant.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use predis_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(bytes: &[u8; 32]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The bytes after the last whole block; `buffer[..buffered]` is live.
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The only padding block of a 64-byte message: `0x80`, zeros, bit length
/// 512. Constant, so its message schedule is too.
const PAD64_BLOCK: [u8; 64] = {
    let mut block = [0u8; 64];
    block[0] = 0x80;
    block[62] = 0x02;
    block
};

const PAD64_SCHEDULE: [u32; 64] = schedule(&PAD64_BLOCK);

/// The block-compression implementation in use on this CPU.
#[derive(Debug, Clone, Copy)]
enum Backend {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi(x86::ShaNi),
}

impl Backend {
    /// Picks the backend from the CPU's reported features — nothing else
    /// selects it.
    fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = x86::ShaNi::detect() {
            return Backend::ShaNi(ni);
        }
        Backend::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Backend::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi(_) => "x86-sha-ni",
        }
    }

    /// Compresses every whole 64-byte block of `blocks` into `state`.
    fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Backend::Portable => {
                for block in blocks.chunks_exact(64) {
                    let block = block.try_into().expect("chunks_exact(64)");
                    rounds(state, &schedule(block));
                }
            }
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi(ni) => ni.compress_blocks(state, blocks),
        }
    }

    /// Compresses a 64-byte message's data block and then [`PAD64_BLOCK`]
    /// into `state`. The portable code skips the padding block's schedule
    /// (a third of that compression); the SHA-NI kernel computes schedules
    /// inside the round pipeline for free, so it gets both blocks in one
    /// call and keeps the state in registers between them.
    fn compress_64_padded(self, state: &mut [u32; 8], data: &[u8; 64]) {
        match self {
            Backend::Portable => {
                rounds(state, &schedule(data));
                rounds(state, &PAD64_SCHEDULE);
            }
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi(ni) => {
                let mut padded = [0u8; 128];
                padded[..64].copy_from_slice(data);
                padded[64..].copy_from_slice(&PAD64_BLOCK);
                ni.compress_blocks(state, &padded);
            }
        }
    }
}

/// Which block-compression backend this process hashes with:
/// `"x86-sha-ni"` or `"portable"`. Benchmarks print it so that a rate
/// difference between two machines explains itself.
pub fn backend() -> &'static str {
    Backend::detect().name()
}

/// The 64-word message schedule of one block.
const fn schedule(block: &[u8; 64]) -> [u32; 64] {
    let mut w = [0u32; 64];
    let mut i = 0;
    while i < 16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
        i += 1;
    }
    while i < 64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
        i += 1;
    }
    w
}

/// The 64 rounds over a prepared schedule, added into `state`.
fn rounds(state: &mut [u32; 8], w: &[u32; 64]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// Pads `tail` (the bytes after the last whole block of a `total_len`-byte
/// message) on the stack, compresses the one or two final blocks in a
/// single call and serialises the digest.
fn finish(mut state: [u32; 8], tail: &[u8], total_len: u64) -> [u8; 32] {
    assert!(tail.len() < 64, "tail is what follows the last whole block");
    let mut pad = [0u8; 128];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    // The 8-byte length needs room after the 0x80 marker: 55 bytes of tail
    // fit one block, 56 spill into a second.
    let end = if tail.len() < 56 { 64 } else { 128 };
    pad[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    Backend::detect().compress_blocks(&mut state, &pad[..end]);
    digest_bytes(&state)
}

fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash. Whole blocks are compressed straight
    /// from `data`; only a trailing partial block is copied.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            Backend::detect().compress_blocks(&mut self.state, &self.buffer);
        }
        let (whole, tail) = input.split_at(input.len() & !63);
        if !whole.is_empty() {
            Backend::detect().compress_blocks(&mut self.state, whole);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        finish(self.state, &self.buffer[..self.buffered], self.total_len)
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// One-shot SHA-256 of `data`, with no hasher state: whole blocks are
/// compressed in place and the rest is padded on the stack, so a message of
/// at most 55 bytes is one stack block and one compression.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let (whole, tail) = data.split_at(data.len() & !63);
    if !whole.is_empty() {
        Backend::detect().compress_blocks(&mut state, whole);
    }
    finish(state, tail, data.len() as u64)
}

/// One-shot SHA-256 of exactly one block of data (a Merkle interior node, a
/// signature tag): the data block, then the constant padding block.
pub(crate) fn sha256_64(data: &[u8; 64]) -> [u8; 32] {
    let mut state = H0;
    Backend::detect().compress_64_padded(&mut state, data);
    digest_bytes(&state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8; 32]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// NIST FIPS 180-4 / RFC 6234 test vectors.
    fn nist_vectors() -> [(Vec<u8>, &'static str); 4] {
        [
            (
                vec![],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]
    }

    /// The SHA-NI backend, or `None` (saying so) on a CPU without it.
    fn sha_ni() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        if let Some(ni) = x86::ShaNi::detect() {
            return Some(Backend::ShaNi(ni));
        }
        println!("skipped: no sha extension");
        None
    }

    /// SHA-256 on one named backend with textbook padding of the whole
    /// message — shares only `compress_blocks` with the code under test.
    fn digest_on(backend: Backend, msg: &[u8]) -> [u8; 32] {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        backend.compress_blocks(&mut state, &padded);
        digest_bytes(&state)
    }

    #[test]
    fn nist_vectors_dispatched() {
        for (msg, want) in nist_vectors() {
            assert_eq!(hex(&sha256(&msg)), want, "{} bytes", msg.len());
            let mut h = Sha256::new();
            for chunk in msg.chunks(1000) {
                h.update(chunk);
            }
            assert_eq!(hex(&h.finalize()), want, "{} bytes streamed", msg.len());
        }
    }

    #[test]
    fn nist_vectors_portable() {
        for (msg, want) in nist_vectors() {
            assert_eq!(hex(&digest_on(Backend::Portable, &msg)), want);
        }
    }

    #[test]
    fn nist_vectors_sha_ni() {
        let Some(ni) = sha_ni() else { return };
        for (msg, want) in nist_vectors() {
            assert_eq!(hex(&digest_on(ni, &msg)), want);
        }
    }

    #[test]
    fn backend_name_matches_detection() {
        let want = if sha_ni().is_some() {
            "x86-sha-ni"
        } else {
            "portable"
        };
        assert_eq!(backend(), want);
    }

    fn words(bytes: [u8; 32]) -> [u32; 8] {
        std::array::from_fn(|i| u32::from_be_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any chaining state, any 1–9 blocks: both backends agree, whether
        /// the blocks go in one call or one at a time.
        #[test]
        fn backends_agree(
            state in any::<[u8; 32]>(),
            data in proptest::collection::vec(any::<u8>(), 9 * 64),
            blocks in 1usize..10,
        ) {
            let data = &data[..blocks * 64];
            let mut portable = words(state);
            Backend::Portable.compress_blocks(&mut portable, data);
            let mut stepwise = words(state);
            for block in data.chunks(64) {
                Backend::Portable.compress_blocks(&mut stepwise, block);
            }
            prop_assert_eq!(portable, stepwise);
            if let Some(ni) = sha_ni() {
                let mut accelerated = words(state);
                ni.compress_blocks(&mut accelerated, data);
                prop_assert_eq!(portable, accelerated);
            }
        }

        /// The fixed 64-byte shape (constant padding schedule, or both
        /// blocks in one kernel call) is the data block then the pad block.
        #[test]
        fn fixed_64_byte_shape_is_data_then_pad_block(
            state in any::<[u8; 32]>(),
            data in any::<[u8; 64]>(),
        ) {
            let mut want = words(state);
            Backend::Portable.compress_blocks(&mut want, &data);
            Backend::Portable.compress_blocks(&mut want, &PAD64_BLOCK);
            for backend in [Some(Backend::Portable), sha_ni()].into_iter().flatten() {
                let mut got = words(state);
                backend.compress_64_padded(&mut got, &data);
                prop_assert_eq!(got, want, "{}", backend.name());
            }
        }
    }

    #[test]
    fn every_length_and_split_matches_textbook_padding() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = digest_on(Backend::Portable, msg);
            assert_eq!(sha256(msg), want, "one-shot, len {len}");
            if let Ok(block) = <&[u8; 64]>::try_from(msg) {
                assert_eq!(sha256_64(block), want, "fixed 64-byte shape");
            }
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finalize(), want, "len {len} split at {split}");
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn exact_block_boundary() {
        // 55, 56, 63, 64 byte messages hit different padding paths.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0xabu8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
