//! Inputs, all derived from `--seed`: a small PRNG, the relational tables
//! the wire and segment workloads read, and the CRC-32 fingerprint that
//! pins what was fed to the engine.

/// SplitMix64. Owned by the harness so that its tables and operation
/// streams do not change when the repository's `rand` shim does.
pub struct Rng(u64);

impl Rng {
    /// One stream per (seed, purpose), so adding a purpose shifts no other.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Incremental CRC-32 (IEEE), fed with the generated SQL and every loaded
/// column so that drift in a generator cannot silently change the load.
pub struct Fingerprint(u32);

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(0xFFFF_FFFF)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 >> 8) ^ CRC_TABLE[((self.0 ^ u32::from(b)) & 0xFF) as usize];
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn i64s(&mut self, values: &[i64]) {
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }

    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }

    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// Distinct values of `data.tag`: few enough that the segment encoder
/// picks the dictionary encoding.
pub const TAGS: u64 = 32;
/// Groups of `data.g`.
pub const GROUPS: i64 = 16;

pub fn tag(i: u64) -> String {
    format!("tag{i:02}")
}

/// `data(id, g = id % 16, k, c0, c1, tag)`, column-wise.
pub struct RelData {
    pub id: Vec<i64>,
    pub g: Vec<i64>,
    /// Join key into `dim.k`, uniform.
    pub k: Vec<i64>,
    pub c0: Vec<f64>,
    pub c1: Vec<f64>,
    pub tag: Vec<String>,
}

impl RelData {
    pub fn generate(rows: usize, dim_rows: usize, seed: u64) -> RelData {
        let mut rng = Rng::new(seed, 1);
        let id: Vec<i64> = (0..rows as i64).collect();
        RelData {
            g: id.iter().map(|i| i % GROUPS).collect(),
            k: (0..rows)
                .map(|_| rng.below(dim_rows as u64) as i64)
                .collect(),
            c0: (0..rows).map(|_| rng.unit()).collect(),
            c1: (0..rows).map(|_| rng.unit()).collect(),
            tag: (0..rows).map(|_| tag(rng.below(TAGS))).collect(),
            id,
        }
    }

    pub fn rows(&self) -> usize {
        self.id.len()
    }

    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.i64s(&self.id);
        fp.i64s(&self.g);
        fp.i64s(&self.k);
        fp.f64s(&self.c0);
        fp.f64s(&self.c1);
        for t in &self.tag {
            fp.str(t);
        }
    }

    /// Decoded size: what the table occupies once every block is in memory.
    pub fn decoded_bytes(&self) -> u64 {
        let strings: usize = self.tag.iter().map(String::len).sum();
        (self.rows() * 5 * 8 + strings) as u64
    }
}

/// `dim(k, w, name)`.
pub struct DimData {
    pub k: Vec<i64>,
    pub w: Vec<f64>,
    pub name: Vec<String>,
}

impl DimData {
    pub fn generate(rows: usize, seed: u64) -> DimData {
        let mut rng = Rng::new(seed, 2);
        DimData {
            k: (0..rows as i64).collect(),
            w: (0..rows).map(|_| rng.unit()).collect(),
            name: (0..rows).map(|i| format!("dim{i:04}")).collect(),
        }
    }

    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.i64s(&self.k);
        fp.f64s(&self.w);
        for n in &self.name {
            fp.str(n);
        }
    }
}

/// Accounts of the write workloads.
pub const ACCOUNTS: i64 = 1000;
/// Opening balance of every account.
pub const OPENING_BALANCE: i64 = 1000;

/// One row of `events(id, acct, amount, score, note)`; every field follows
/// from the id, so a ledger can be kept without remembering rows.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub id: i64,
}

impl Event {
    pub fn acct(self) -> i64 {
        self.id % ACCOUNTS
    }

    pub fn amount(self) -> i64 {
        self.id % 97 + 1
    }

    pub fn score(self) -> f64 {
        (self.id % 1000) as f64 / 1000.0
    }

    pub fn note(self) -> String {
        format!("note-{:08}", self.id)
    }

    /// Bytes of user data in the row: four 8-byte fields and the note.
    pub const USER_BYTES: u64 = 4 * 8 + 13;
}

pub fn self_test() -> Result<(), String> {
    let mut fp = Fingerprint::new();
    fp.str("123456789");
    if fp.finish() != 0xCBF4_3926 {
        return Err(format!(
            "gen self-test failed: crc32 check value is {:08x}",
            fp.finish()
        ));
    }
    let (mut a, mut b) = (Rng::new(7, 1), Rng::new(7, 1));
    if (0..8).any(|_| a.next_u64() != b.next_u64()) {
        return Err("gen self-test failed: same seed, different stream".into());
    }
    if Rng::new(7, 1).next_u64() == Rng::new(8, 1).next_u64() {
        return Err("gen self-test failed: seeds 7 and 8 share a stream".into());
    }
    if (Event { id: 5 }).note().len() as u64 + 32 != Event::USER_BYTES {
        return Err("gen self-test failed: Event::USER_BYTES".into());
    }
    Ok(())
}
