//! CABAC arithmetic-coding primitives shared by the `SUPER_CABAC_*`
//! operations and the H.264 CABAC substrate.
//!
//! The tables are the H.264/AVC standard tables (`rangeTabLPS`,
//! `transIdxMPS`, `transIdxLPS`; Marpe et al. \[18\]), which the paper's
//! Figure 2 references as `LpsRangeTable`, `MpsNextStateTable` and
//! `LpsNextStateTable`.
//!
//! [`cabac_decode_step`] is the `biari_decode_symbol` function of Figure 2.
//! Both `SUPER_CABAC_CTX` and `SUPER_CABAC_STR` execute this full step and
//! return different halves of its outputs (paper, Table 2).
//!
//! Note on Figure 2's LPS branch: the OCR of the paper renders the MPS
//! update ambiguously; we implement the H.264-standard behaviour — the MPS
//! flips exactly when the LPS is observed in state 0.

/// `rangeTabLPS[state][(range >> 6) & 3]`: LPS sub-range width for each of
/// the 64 probability states and 4 quantized range intervals.
pub const LPS_RANGE_TABLE: [[u16; 4]; 64] = [
    [128, 176, 208, 240],
    [128, 167, 197, 227],
    [128, 158, 187, 216],
    [123, 150, 178, 205],
    [116, 142, 169, 195],
    [111, 135, 160, 185],
    [105, 128, 152, 175],
    [100, 122, 144, 166],
    [95, 116, 137, 158],
    [90, 110, 130, 150],
    [85, 104, 123, 142],
    [81, 99, 117, 135],
    [77, 94, 111, 128],
    [73, 89, 105, 122],
    [69, 85, 100, 116],
    [66, 80, 95, 110],
    [62, 76, 90, 104],
    [59, 72, 86, 99],
    [56, 69, 81, 94],
    [54, 65, 77, 89],
    [51, 62, 73, 85],
    [48, 59, 69, 80],
    [46, 56, 66, 76],
    [43, 53, 63, 72],
    [41, 50, 59, 69],
    [39, 48, 56, 65],
    [37, 45, 54, 62],
    [35, 43, 51, 59],
    [33, 41, 48, 56],
    [32, 39, 46, 53],
    [30, 37, 43, 50],
    [29, 35, 41, 48],
    [27, 33, 39, 45],
    [26, 31, 37, 43],
    [24, 30, 35, 41],
    [23, 28, 33, 39],
    [22, 27, 32, 37],
    [21, 26, 30, 35],
    [20, 24, 29, 33],
    [19, 23, 27, 31],
    [18, 22, 26, 30],
    [17, 21, 25, 28],
    [16, 20, 23, 27],
    [15, 19, 22, 25],
    [14, 18, 21, 24],
    [14, 17, 20, 23],
    [13, 16, 19, 22],
    [12, 15, 18, 21],
    [12, 14, 17, 20],
    [11, 14, 16, 19],
    [11, 13, 15, 18],
    [10, 12, 15, 17],
    [10, 12, 14, 16],
    [9, 11, 13, 15],
    [9, 11, 12, 14],
    [8, 10, 12, 14],
    [8, 9, 11, 13],
    [7, 9, 11, 12],
    [7, 9, 10, 12],
    [7, 8, 10, 11],
    [6, 8, 9, 11],
    [6, 7, 9, 10],
    [6, 7, 8, 9],
    [2, 2, 2, 2],
];

/// `transIdxMPS[state]`: next probability state after observing the MPS.
pub const MPS_NEXT_STATE_TABLE: [u8; 64] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
    27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50,
    51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 62, 63,
];

/// `transIdxLPS[state]`: next probability state after observing the LPS.
pub const LPS_NEXT_STATE_TABLE: [u8; 64] = [
    0, 0, 1, 2, 2, 4, 4, 5, 6, 7, 8, 9, 9, 11, 11, 12, 13, 13, 15, 15, 16, 16, 18, 18, 19, 19, 21,
    21, 23, 22, 23, 24, 24, 25, 26, 26, 27, 27, 28, 29, 29, 30, 30, 30, 31, 32, 32, 33, 33, 33, 34,
    34, 35, 35, 35, 36, 36, 36, 37, 37, 37, 38, 38, 63,
];

/// The complete state carried in and out of one `biari_decode_symbol` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CabacState {
    /// Arithmetic-coding value ("offset"); a 10-bit quantity.
    pub value: u16,
    /// Arithmetic-coding range; a 9-bit quantity, `>= 256` after
    /// renormalization.
    pub range: u16,
    /// Probability-model state of the context (6 bits, `0..64`).
    pub state: u8,
    /// Most-probable-symbol of the context (1 bit).
    pub mps: bool,
}

/// The outputs of one `biari_decode_symbol` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CabacStep {
    /// Updated coding/context state.
    pub next: CabacState,
    /// The decoded binary symbol.
    pub bit: bool,
    /// Updated bit position in the `stream_data` window (grows by the number
    /// of renormalization shifts, at most 8 per step).
    pub stream_bit_position: u32,
}

/// Executes one `biari_decode_symbol` step (paper, Figure 2).
///
/// `stream_data` is a 32-bit big-endian window of the coded bitstream and
/// `stream_bit_position` is the number of bits of that window already
/// consumed. At most 8 additional bits are consumed per call, so callers
/// must refill the window before `stream_bit_position` approaches 25.
///
/// # Panics
///
/// Panics (debug builds) if `state >= 64`.
pub fn cabac_decode_step(s: CabacState, stream_data: u32, stream_bit_position: u32) -> CabacStep {
    debug_assert!(s.state < 64, "CABAC state out of range");
    let mut stream_data_aligned = stream_data << (stream_bit_position & 31);
    let range_lps = LPS_RANGE_TABLE[s.state as usize][((s.range >> 6) & 3) as usize];
    // Well-formed streams keep `range >= 256 > range_lps`; out-of-contract
    // inputs (possible when software feeds the hardware operation garbage)
    // wrap, like the datapath would.
    let temp_range = s.range.wrapping_sub(range_lps);

    let mut value = s.value;
    let mut range;
    let bit;
    let mut mps = s.mps;
    let state;
    if value < temp_range {
        // MPS: most probable symbol.
        range = temp_range;
        bit = s.mps;
        state = MPS_NEXT_STATE_TABLE[s.state as usize];
    } else {
        // LPS: least probable symbol.
        value -= temp_range;
        range = range_lps;
        bit = !s.mps;
        if s.state == 0 {
            mps = !mps;
        }
        state = LPS_NEXT_STATE_TABLE[s.state as usize];
    }

    // Renormalization: at most 8 bits can be consumed on a well-formed
    // stream; the shifter bound also keeps out-of-contract inputs (e.g. a
    // zero range) terminating, like the fixed-depth hardware would.
    let mut pos = stream_bit_position;
    let mut shifts = 0;
    while range < 256 && shifts < 9 {
        value = (value << 1) | ((stream_data_aligned >> 31) & 1) as u16;
        range <<= 1;
        stream_data_aligned <<= 1;
        pos = pos.wrapping_add(1);
        shifts += 1;
    }

    CabacStep {
        next: CabacState {
            value,
            range,
            state,
            mps,
        },
        bit,
        stream_bit_position: pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_h264_shape() {
        // Spot checks against the H.264 standard tables.
        assert_eq!(LPS_RANGE_TABLE[0], [128, 176, 208, 240]);
        assert_eq!(LPS_RANGE_TABLE[63], [2, 2, 2, 2]);
        assert_eq!(MPS_NEXT_STATE_TABLE[62], 62);
        assert_eq!(MPS_NEXT_STATE_TABLE[63], 63);
        assert_eq!(LPS_NEXT_STATE_TABLE[0], 0);
        assert_eq!(LPS_NEXT_STATE_TABLE[63], 63);
    }

    #[test]
    fn mps_path_keeps_value() {
        let s = CabacState {
            value: 0,
            range: 510,
            state: 10,
            mps: true,
        };
        let r = cabac_decode_step(s, 0, 0);
        assert!(r.bit, "value 0 is always inside the MPS sub-range");
        assert_eq!(r.next.state, MPS_NEXT_STATE_TABLE[10]);
        assert_eq!(r.next.value, 0);
        assert!(r.next.range >= 256);
    }

    #[test]
    fn lps_path_flips_mps_only_in_state_zero() {
        // Force the LPS path by making value enormous relative to range.
        let s = CabacState {
            value: 509,
            range: 510,
            state: 0,
            mps: true,
        };
        let r = cabac_decode_step(s, 0xffff_ffff, 0);
        assert!(!r.bit);
        assert!(!r.next.mps, "state 0 LPS flips the MPS");

        let s1 = CabacState { state: 5, ..s };
        let r1 = cabac_decode_step(s1, 0xffff_ffff, 0);
        assert!(r1.next.mps, "non-zero state LPS keeps the MPS");
        assert_eq!(r1.next.state, LPS_NEXT_STATE_TABLE[5]);
    }

    #[test]
    fn renormalization_consumes_at_most_8_bits() {
        for state in 0..64u8 {
            let s = CabacState {
                value: 300,
                range: 310,
                state,
                mps: false,
            };
            let r = cabac_decode_step(s, 0xa5a5_a5a5, 3);
            assert!(r.stream_bit_position - 3 <= 8, "state {state}");
            assert!(r.next.range >= 256);
            assert!(
                r.next.value < r.next.range || r.next.value < 1024,
                "value stays a 10-bit quantity"
            );
        }
    }

    #[test]
    fn renormalization_pulls_bits_from_window() {
        // range_lps for state 63 is 2, so an LPS forces 7 shifts
        // (2 -> 256), pulling 7 bits from the window.
        let s = CabacState {
            value: 500,
            range: 502,
            state: 63,
            mps: false,
        };
        let window = 0b1011_0110_0000_0000_0000_0000_0000_0000u32;
        let r = cabac_decode_step(s, window, 0);
        assert_eq!(r.stream_bit_position, 7);
        // value = (500 - 500) = 0, then 7 window bits shifted in.
        assert_eq!(r.next.value, 0b1011011);
    }
}
