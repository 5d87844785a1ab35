//! The length-prefixed binary wire protocol of the query server.
//!
//! Every message is one **frame**: a little-endian `u32` payload length
//! followed by the payload. Requests and responses are versioned by a leading
//! opcode/status byte, all integers little-endian, `f64` as IEEE-754 bit
//! patterns (θ crosses the wire bit-exactly, which is what makes the
//! end-to-end determinism tests meaningful).
//!
//! Request payload:
//!
//! ```text
//! u8  opcode      1 = text query, 2 = token-id query
//! u64 seed        request RNG stream (same seed ⇒ bit-identical θ)
//! u32 top_n       max top topics to return
//! --- opcode 1: u32 byte length + UTF-8 text
//! --- opcode 2: u32 count + count × u32 word ids
//! ```
//!
//! Response payload:
//!
//! ```text
//! u8 status       0 = ok, 1 = error
//! --- status 1: u32 byte length + UTF-8 message
//! --- status 0:
//! u32 model_epoch     hot-swap generation that served the request
//! u32 tokens_used     query tokens actually folded in
//! u32 oov_dropped     out-of-vocabulary words dropped (Skip policy)
//! u32 k               number of topics
//! k × f64             θ (bit-exact)
//! u32 top_count       then top_count × (u32 topic, f64 weight)
//! ```
//!
//! The server decodes requests and encodes responses against reusable
//! buffers, so a warm worker serves requests without heap allocation; the
//! framing itself (incremental [`FrameBuffer`], length-prefix encoding) lives
//! in the shared `warplda-net` crate and is re-exported here so existing
//! `serve::wire` paths keep working. Payloads are parsed with the workspace's
//! one reader for bytes from outside, [`Decoder`]: a payload that ends early,
//! announces more elements than it holds or carries trailing bytes is a typed
//! [`CodecError`], and nothing is allocated for a count the bytes do not back.

use warplda_corpus::io::codec::{CodecError, CodecResult, Decoder};
use warplda_net::{begin_frame, end_frame};

pub use warplda_net::{FrameBuffer, WireError};

/// Opcode of a raw-text query (tokenized server-side against the frozen
/// vocabulary).
const OP_QUERY_TEXT: u8 = 1;
/// Opcode of a pre-tokenized query (client already holds word ids).
const OP_QUERY_TOKENS: u8 = 2;

/// Response status: success.
pub const STATUS_OK: u8 = 0;
/// Response status: the request was rejected; the payload carries a message.
const STATUS_ERROR: u8 = 1;

/// A query request (the owning, client-side form).
#[derive(Debug, Clone)]
pub struct Request {
    /// RNG stream of the request; a fixed seed reproduces θ bit-exactly.
    pub seed: u64,
    /// Maximum number of top topics to return.
    pub top_n: u32,
    /// The query body.
    pub body: RequestBody,
}

/// The two query forms.
#[derive(Debug, Clone)]
pub enum RequestBody {
    /// Raw text, tokenized server-side against the frozen vocabulary.
    Text(String),
    /// Pre-tokenized word ids.
    Tokens(Vec<u32>),
}

/// A decoded response (client side).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The inference succeeded.
    Ok(InferReply),
    /// The server rejected the request.
    Error(String),
}

/// The success payload of a [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub struct InferReply {
    /// Hot-swap generation of the model that served the request.
    pub model_epoch: u32,
    /// Query tokens actually folded in.
    pub tokens_used: u32,
    /// Out-of-vocabulary words dropped under the Skip policy.
    pub oov_dropped: u32,
    /// θ, bit-exact as computed by the server.
    pub theta: Vec<f64>,
    /// Top topics as `(topic, θ_topic)`, best first.
    pub top: Vec<(u32, f64)>,
}

// ---------------------------------------------------------------------------
// Encoding (appends one complete frame to `out`; allocation-free once `out`
// has grown to its high-water mark).
// ---------------------------------------------------------------------------

/// Appends an encoded request frame to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    let at = begin_frame(out);
    match &req.body {
        RequestBody::Text(text) => {
            out.push(OP_QUERY_TEXT);
            out.extend_from_slice(&req.seed.to_le_bytes());
            out.extend_from_slice(&req.top_n.to_le_bytes());
            out.extend_from_slice(&(text.len() as u32).to_le_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        RequestBody::Tokens(tokens) => {
            out.push(OP_QUERY_TOKENS);
            out.extend_from_slice(&req.seed.to_le_bytes());
            out.extend_from_slice(&req.top_n.to_le_bytes());
            out.extend_from_slice(&(tokens.len() as u32).to_le_bytes());
            for &t in tokens {
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
    }
    end_frame(out, at);
}

/// Appends a success-response frame to `out`.
pub fn encode_ok_response(
    out: &mut Vec<u8>,
    model_epoch: u32,
    tokens_used: u32,
    oov_dropped: u32,
    theta: &[f64],
    top: &[(u32, f64)],
) {
    let at = begin_frame(out);
    out.push(STATUS_OK);
    out.extend_from_slice(&model_epoch.to_le_bytes());
    out.extend_from_slice(&tokens_used.to_le_bytes());
    out.extend_from_slice(&oov_dropped.to_le_bytes());
    out.extend_from_slice(&(theta.len() as u32).to_le_bytes());
    for &v in theta {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(top.len() as u32).to_le_bytes());
    for &(t, w) in top {
        out.extend_from_slice(&t.to_le_bytes());
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    end_frame(out, at);
}

/// Appends an error-response frame to `out`.
pub(crate) fn encode_error_response(out: &mut Vec<u8>, message: &str) {
    let at = begin_frame(out);
    out.push(STATUS_ERROR);
    out.extend_from_slice(&(message.len() as u32).to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    end_frame(out, at);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The borrowed, server-side view of a request. Token-id queries decode into
/// the caller's reusable buffer so the server's hot path never allocates.
#[derive(Debug)]
pub(crate) struct RequestView<'a> {
    pub seed: u64,
    pub top_n: u32,
    pub body: RequestBodyView<'a>,
}

#[derive(Debug)]
pub(crate) enum RequestBodyView<'a> {
    Text(&'a str),
    /// Tokens were appended to the caller's buffer.
    Tokens,
}

/// Reads a `u32`-length-prefixed UTF-8 string field.
fn str_field<'a>(dec: &mut Decoder<'a>) -> CodecResult<&'a str> {
    let len = dec.read_u32()? as usize;
    std::str::from_utf8(dec.bytes(len)?)
        .map_err(|e| CodecError::Corrupt(format!("string field is not UTF-8: {e}")))
}

/// Reads a `u32` element count, checked against the bytes that remain at
/// `elem_bytes` per element.
fn count_field(dec: &mut Decoder<'_>, elem_bytes: usize) -> CodecResult<usize> {
    let count = dec.read_u32()?;
    dec.fits(count.into(), elem_bytes)
}

/// Decodes a request payload; token queries are written into `tokens_out`
/// (cleared first).
pub(crate) fn decode_request<'a>(
    payload: &'a [u8],
    tokens_out: &mut Vec<u32>,
) -> CodecResult<RequestView<'a>> {
    let mut dec = Decoder::new(payload);
    let opcode = dec.read_u8()?;
    let seed = dec.read_u64()?;
    let top_n = dec.read_u32()?;
    let body = match opcode {
        OP_QUERY_TEXT => RequestBodyView::Text(str_field(&mut dec)?),
        OP_QUERY_TOKENS => {
            let count = count_field(&mut dec, 4)?;
            let ids = dec.bytes(4 * count)?.as_chunks::<4>().0;
            tokens_out.clear();
            tokens_out.extend(ids.iter().map(|id| u32::from_le_bytes(*id)));
            RequestBodyView::Tokens
        }
        other => return Err(CodecError::Corrupt(format!("unknown request opcode {other}"))),
    };
    dec.finish()?;
    Ok(RequestView { seed, top_n, body })
}

/// Decodes a response payload (client side; allocates the owned vectors).
pub fn decode_response(payload: &[u8]) -> CodecResult<Response> {
    let mut dec = Decoder::new(payload);
    let response = match dec.read_u8()? {
        STATUS_OK => {
            let model_epoch = dec.read_u32()?;
            let tokens_used = dec.read_u32()?;
            let oov_dropped = dec.read_u32()?;
            let k = count_field(&mut dec, 8)?;
            let theta = dec.bytes(8 * k)?.as_chunks::<8>().0;
            let theta =
                theta.iter().map(|bits| f64::from_bits(u64::from_le_bytes(*bits))).collect();
            let top_count = count_field(&mut dec, 12)?;
            let mut top = Vec::with_capacity(top_count);
            for _ in 0..top_count {
                top.push((dec.read_u32()?, dec.read_f64()?));
            }
            Response::Ok(InferReply { model_epoch, tokens_used, oov_dropped, theta, top })
        }
        STATUS_ERROR => Response::Error(str_field(&mut dec)?.to_owned()),
        other => return Err(CodecError::Corrupt(format!("unknown response status {other}"))),
    };
    dec.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_both_bodies() {
        for body in [
            RequestBody::Text("what topics is this about".into()),
            RequestBody::Tokens(vec![3, 1, 4, 1, 5]),
        ] {
            let req = Request { seed: 0xDEAD_BEEF, top_n: 5, body };
            let mut out = Vec::new();
            encode_request(&req, &mut out);
            // Frame length prefix is exact.
            let len = u32::from_le_bytes(out[..4].try_into().unwrap()) as usize;
            assert_eq!(len, out.len() - 4);
            let mut tokens = Vec::new();
            let view = decode_request(&out[4..], &mut tokens).unwrap();
            assert_eq!(view.seed, 0xDEAD_BEEF);
            assert_eq!(view.top_n, 5);
            match (&req.body, &view.body) {
                (RequestBody::Text(t), RequestBodyView::Text(v)) => assert_eq!(t, v),
                (RequestBody::Tokens(t), RequestBodyView::Tokens) => assert_eq!(t, &tokens),
                _ => panic!("body kind changed in flight"),
            }
        }
    }

    #[test]
    fn response_round_trips_bit_exactly() {
        let theta = vec![0.5, 0.25, 0.25f64.sqrt(), f64::MIN_POSITIVE];
        let top = vec![(2u32, 0.25f64.sqrt()), (0, 0.5)];
        let mut out = Vec::new();
        encode_ok_response(&mut out, 7, 11, 2, &theta, &top);
        let resp = decode_response(&out[4..]).unwrap();
        let Response::Ok(reply) = resp else { panic!("expected ok") };
        assert_eq!(reply.model_epoch, 7);
        assert_eq!(reply.tokens_used, 11);
        assert_eq!(reply.oov_dropped, 2);
        assert_eq!(
            reply.theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(reply.top, top);

        let mut out = Vec::new();
        encode_error_response(&mut out, "unknown word \"qux\"");
        match decode_response(&out[4..]).unwrap() {
            Response::Error(msg) => assert!(msg.contains("qux")),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let mut tokens = Vec::new();
        assert!(decode_request(&[], &mut tokens).is_err());
        assert!(decode_request(&[99], &mut tokens).is_err());
        // Token count promising more data than present.
        let mut out = Vec::new();
        encode_request(
            &Request { seed: 1, top_n: 1, body: RequestBody::Tokens(vec![1, 2, 3]) },
            &mut out,
        );
        assert!(decode_request(&out[4..out.len() - 4], &mut tokens).is_err());
        // Trailing garbage.
        let mut out = Vec::new();
        encode_request(
            &Request { seed: 1, top_n: 1, body: RequestBody::Text("x".into()) },
            &mut out,
        );
        out.push(0);
        assert!(decode_request(&out[4..], &mut tokens).is_err());
        assert!(decode_response(&[9]).is_err());
        // A θ count the reply does not hold: refused, not allocated for.
        let mut reply = Vec::new();
        encode_ok_response(&mut reply, 0, 1, 0, &[0.5, 0.5], &[(0, 0.5)]);
        assert!(decode_response(&reply[4..]).is_ok());
        let k_at = 4 + 1 + 12;
        reply[k_at..k_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_response(&reply[4..]), Err(CodecError::Corrupt(_))));
    }
}
