//! Text encodings of byte payloads: base64 for binary payloads in JSON
//! documents, and the one lossy bytes-to-text conversion the workspace uses.
//!
//! The v1 HTTP API returns invocation outputs inside JSON status documents;
//! output items are arbitrary bytes, so they are carried as standard base64
//! (RFC 4648, with padding). Implemented here because the workspace builds
//! fully offline.

use std::borrow::Cow;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// How many input bytes each streaming write covers. 48 input bytes encode
/// to a 64-character stack buffer, keeping the formatter call count low
/// without any heap allocation.
const STREAM_CHUNK_BYTES: usize = 48;

/// Reads bytes as text, replacing each invalid UTF-8 sequence with U+FFFD:
/// std's lossy conversion, byte for byte.
///
/// Valid input — what HTTP bodies and heads nearly always are — is checked
/// by [`std::str::from_utf8`], which validates ASCII a word at a time, and
/// comes back borrowed: the text *is* the input buffer. The lossy conversion
/// itself walks every byte through `Utf8Chunks` even when nothing needs
/// replacing (a fifth of the server's CPU on the `logs` workload, when every
/// caller went to it directly); here it runs only for input that does.
pub fn utf8_lossy(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        #[allow(clippy::disallowed_methods)]
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

/// Encodes bytes as standard base64 with padding.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    base64_encode_into(&mut out, data).expect("writing to a String cannot fail");
    out
}

/// Streams base64 straight into a [`std::fmt::Write`] sink.
///
/// This is the allocation-free path the JSON encoder uses to serialize
/// binary payloads: output items stream from their [`crate::SharedBytes`]
/// slices into the response body without an intermediate `String` per item.
pub fn base64_encode_into(out: &mut impl std::fmt::Write, data: &[u8]) -> std::fmt::Result {
    let mut encoded = [0u8; STREAM_CHUNK_BYTES / 3 * 4];
    for chunk in data.chunks(STREAM_CHUNK_BYTES) {
        let mut filled = 0;
        for triple_chunk in chunk.chunks(3) {
            let b0 = triple_chunk[0] as u32;
            let b1 = triple_chunk.get(1).copied().unwrap_or(0) as u32;
            let b2 = triple_chunk.get(2).copied().unwrap_or(0) as u32;
            let triple = (b0 << 16) | (b1 << 8) | b2;
            encoded[filled] = ALPHABET[(triple >> 18) as usize & 0x3F];
            encoded[filled + 1] = ALPHABET[(triple >> 12) as usize & 0x3F];
            encoded[filled + 2] = if triple_chunk.len() > 1 {
                ALPHABET[(triple >> 6) as usize & 0x3F]
            } else {
                b'='
            };
            encoded[filled + 3] = if triple_chunk.len() > 2 {
                ALPHABET[triple as usize & 0x3F]
            } else {
                b'='
            };
            filled += 4;
        }
        out.write_str(std::str::from_utf8(&encoded[..filled]).expect("base64 is ASCII"))?;
    }
    Ok(())
}

/// Decodes standard base64 (padding required, no whitespace).
pub fn base64_decode(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err("base64 length must be a multiple of 4".to_string());
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (index, chunk) in bytes.chunks(4).enumerate() {
        let last = index + 1 == bytes.len() / 4;
        let mut triple = 0u32;
        let mut padding = 0usize;
        for (position, &byte) in chunk.iter().enumerate() {
            let value = match byte {
                b'A'..=b'Z' => (byte - b'A') as u32,
                b'a'..=b'z' => (byte - b'a' + 26) as u32,
                b'0'..=b'9' => (byte - b'0' + 52) as u32,
                b'+' => 62,
                b'/' => 63,
                b'=' if last && position >= 2 => {
                    padding += 1;
                    0
                }
                _ => return Err(format!("invalid base64 character `{}`", byte as char)),
            };
            if padding > 0 && byte != b'=' {
                return Err("base64 data after padding".to_string());
            }
            triple = (triple << 6) | value;
        }
        out.push((triple >> 16) as u8);
        if padding < 2 {
            out.push((triple >> 8) as u8);
        }
        if padding < 1 {
            out.push(triple as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn roundtrips_all_byte_values() {
        let data: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        for len in [0, 1, 2, 3, 61, 255, 256] {
            let slice = &data[..len];
            assert_eq!(base64_decode(&base64_encode(slice)).unwrap(), slice);
        }
    }

    /// A naive unchunked reference encoder, kept independent of the
    /// streaming implementation so chunk-boundary bugs cannot cancel out.
    fn reference_encode(data: &[u8]) -> String {
        let mut out = String::new();
        for chunk in data.chunks(3) {
            let b0 = chunk[0] as u32;
            let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
            let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
            let triple = (b0 << 16) | (b1 << 8) | b2;
            out.push(ALPHABET[(triple >> 18) as usize & 0x3F] as char);
            out.push(ALPHABET[(triple >> 12) as usize & 0x3F] as char);
            out.push(if chunk.len() > 1 {
                ALPHABET[(triple >> 6) as usize & 0x3F] as char
            } else {
                '='
            });
            out.push(if chunk.len() > 2 {
                ALPHABET[triple as usize & 0x3F] as char
            } else {
                '='
            });
        }
        out
    }

    #[test]
    fn streaming_encoder_matches_across_chunk_boundaries() {
        let data: Vec<u8> = (0..STREAM_CHUNK_BYTES * 3 + 5)
            .map(|i| (i * 31) as u8)
            .collect();
        for len in [
            0,
            1,
            STREAM_CHUNK_BYTES - 1,
            STREAM_CHUNK_BYTES,
            STREAM_CHUNK_BYTES + 1,
            data.len(),
        ] {
            let mut streamed = String::new();
            base64_encode_into(&mut streamed, &data[..len]).unwrap();
            assert_eq!(streamed, reference_encode(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(base64_decode("abc").is_err());
        assert!(base64_decode("ab=c").is_err());
        assert!(base64_decode("====").is_err());
        assert!(base64_decode("a#bc").is_err());
    }
}
