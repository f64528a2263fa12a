//! The application work the secured and baseline variants share.

/// Simulates the application work surrounding one request — parsing the
/// command line, rendering the response, logging — which both the
/// secured and baseline variants perform identically. The paper's case
/// studies are full applications (FreeCS alone is 22k LOC) whose
/// request handling dwarfs the security operations; our ports compress
/// them to their security-relevant skeleton, so this shared component
/// restores a realistic work-to-security ratio (`units` sizes it per
/// app, chosen so the measured %-time-in-regions lands near Table 3).
#[must_use]
#[inline(never)] // one shared code path for every caller: comparisons
                 // between variants must not depend on inlining luck or
                 // on each variant's allocator state (hence no allocation)
pub fn request_work(parts: &[&str], units: u32) -> u64 {
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    for u in 0..units {
        acc ^= u64::from(u);
        for p in parts {
            for b in p.bytes() {
                acc = acc.wrapping_mul(31).wrapping_add(u64::from(b));
            }
            // One mixing round per token (checksum/CRC-style protocol work).
            acc ^= acc >> 27;
            acc = acc.wrapping_mul(0x94d0_49bb_1331_11eb);
        }
    }
    std::hint::black_box(acc)
}
