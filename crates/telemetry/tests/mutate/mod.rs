//! The mutation operators of the JSON fuzz, shared by the telemetry fuzz
//! (`tests/parse_fuzz.rs`) and the bench crate's fuzz of the files the suite
//! reads (`crates/bench/tests/file_fuzz.rs`, through `#[path]`).

use predis_telemetry::Json;

/// The operator [`mutate`] applies for `op == DUPLICATE`.
pub const DUPLICATE: u8 = 2;

/// Duplicates one member of the `pick`-th object (in depth-first order),
/// right after itself. Returns false when there are fewer objects.
fn duplicate_member(v: &mut Json, pick: &mut usize, member: usize) -> bool {
    match v {
        Json::Obj(pairs) if !pairs.is_empty() => {
            if *pick == 0 {
                let i = member % pairs.len();
                let dup = pairs[i].clone();
                pairs.insert(i + 1, dup);
                return true;
            }
            *pick -= 1;
            pairs
                .iter_mut()
                .any(|(_, child)| duplicate_member(child, pick, member))
        }
        Json::Arr(items) => items
            .iter_mut()
            .any(|child| duplicate_member(child, pick, member)),
        _ => false,
    }
}

/// `doc` (valid JSON) mutated by operator `op` (0..4): truncated, one bit
/// flipped, one member duplicated (the document comes back pretty-printed,
/// unchanged when it has fewer objects than the one picked) or a `\uXXXX`
/// escape spliced in; the other arguments say where and what.
pub fn mutate(doc: &str, op: u8, at: usize, bit: u32, escape: u16, high: bool) -> String {
    match op {
        // Truncate at a char boundary.
        0 => {
            let mut cut = at % (doc.len() + 1);
            while !doc.is_char_boundary(cut) {
                cut -= 1;
            }
            doc[..cut].to_string()
        }
        // Flip one bit below the top of an ASCII byte: the text stays UTF-8.
        1 => {
            let mut bytes = doc.as_bytes().to_vec();
            let ascii: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii()).collect();
            bytes[ascii[at % ascii.len()]] ^= 1 << bit;
            String::from_utf8(bytes).expect("ASCII stays ASCII")
        }
        DUPLICATE => {
            let mut v = Json::parse(doc).expect("documents are valid");
            let mut pick = at % 8;
            duplicate_member(&mut v, &mut pick, at / 8);
            v.to_pretty_string()
        }
        // Splice a `\uXXXX` escape in after a quote — half the time a high
        // surrogate followed by an arbitrary escape.
        _ => {
            let quotes: Vec<usize> = doc.match_indices('"').map(|(i, _)| i + 1).collect();
            let pos = quotes[at % quotes.len()];
            let backslash = '\\';
            let spliced = if high {
                let hi = 0xd800 + (at as u32 >> 8) % 0x400;
                format!("{backslash}u{hi:04x}{backslash}u{escape:04x}")
            } else {
                format!("{backslash}u{escape:04x}")
            };
            format!("{}{spliced}{}", &doc[..pos], &doc[pos..])
        }
    }
}
