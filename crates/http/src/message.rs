//! HTTP/1.x request and response codec.
//!
//! The parser is incremental: it returns `None` until a complete message
//! head (and, for responses, the full `Content-Length` body) is present.
//! Yoda instances call [`parse_request`] on reassembled TCP payload bytes;
//! the paper notes the HTTP header "typically fit\[s\] in the TCP initial
//! window" but the parser handles splits across segments regardless.
//!
//! The encoders write a message head as one exact-size block from its
//! parts (numbers are formatted on the stack), no intermediate `String`.

use std::io::Write;

use yoda_netsim::Bytes;

/// An HTTP request.
///
/// # Examples
///
/// ```
/// use yoda_http::HttpRequest;
///
/// let req = HttpRequest::get("/img/logo.jpg")
///     .with_header("Host", "mysite1.com")
///     .with_header("Cookie", "session=abc42");
/// assert_eq!(req.path(), "/img/logo.jpg");
/// assert_eq!(req.cookie("session"), Some("abc42"));
/// let encoded = req.encode();
/// let (parsed, used) = yoda_http::parse_request(&encoded).unwrap();
/// assert_eq!(used, encoded.len());
/// assert_eq!(parsed.path(), "/img/logo.jpg");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...).
    pub(crate) method: String,
    /// Request target (path + query).
    pub(crate) target: String,
    /// Protocol version: `"HTTP/1.0"` or `"HTTP/1.1"`.
    pub(crate) version: String,
    /// Header name/value pairs in order.
    pub(crate) headers: Vec<(String, String)>,
}

impl HttpRequest {
    /// Builds a GET request for `target` (HTTP/1.0).
    pub fn get(target: impl Into<String>) -> Self {
        HttpRequest {
            method: "GET".to_string(),
            target: target.into(),
            version: "HTTP/1.0".to_string(),
            headers: Vec::new(),
        }
    }

    /// Switches the request to HTTP/1.1 (keep-alive semantics).
    pub fn http11(mut self) -> Self {
        self.version = "HTTP/1.1".to_string();
        self
    }

    /// Appends a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The first value of a header, case-insensitive on the name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Path component of the target (without query string).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The `Host` header.
    pub fn host(&self) -> Option<&str> {
        self.header("Host")
    }

    /// Looks up a cookie value by name within the `Cookie` header.
    pub fn cookie(&self, name: &str) -> Option<&str> {
        let cookies = self.header("Cookie")?;
        cookies.split(';').map(str::trim).find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// True when the connection should stay open after the response
    /// (HTTP/1.1 default, or explicit keep-alive).
    pub(crate) fn keep_alive(&self) -> bool {
        match self.header("Connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Bytes {
        let line = [
            self.method.as_bytes(),
            b" ",
            self.target.as_bytes(),
            b" ",
            self.version.as_bytes(),
            b"\r\n",
        ];
        let end = [&b"\r\n"[..]];
        let lines = line.into_iter().chain(header_lines(&self.headers));
        Bytes::concat(lines.chain(end))
    }
}

/// An HTTP response.
///
/// The body length is always conveyed via `Content-Length` (the simulated
/// servers never chunk), which lets clients and proxies know message
/// boundaries exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, ...).
    pub status: u16,
    /// Protocol version.
    pub(crate) version: String,
    /// Header pairs (excluding `Content-Length`, added at encode time).
    pub(crate) headers: Vec<(String, String)>,
    /// Response body.
    pub body: Bytes,
}

impl HttpResponse {
    /// A 200 response with the given body.
    pub(crate) fn ok(body: Bytes) -> Self {
        HttpResponse {
            status: 200,
            version: "HTTP/1.0".to_string(),
            headers: Vec::new(),
            body,
        }
    }

    /// A 404 response.
    pub(crate) fn not_found() -> Self {
        HttpResponse {
            status: 404,
            version: "HTTP/1.0".to_string(),
            headers: Vec::new(),
            body: Bytes::from_static(b"not found"),
        }
    }

    /// Appends a header.
    pub(crate) fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes everything before the body (adds `Content-Length`). The
    /// wire form is this, then `self.body` — two chunks, no body copy.
    pub(crate) fn encode_head(&self) -> Bytes {
        let reason = match self.status {
            200 => "OK",
            404 => "Not Found",
            _ => "Status",
        };
        let (mut status, mut length) = ([0u8; 5], [0u8; 20]);
        let status = decimal(&mut status, self.status.into());
        let length = decimal(&mut length, self.body.len() as u64);
        let line = [
            self.version.as_bytes(),
            b" ",
            status,
            b" ",
            reason.as_bytes(),
            b"\r\n",
        ];
        let end = [&b"Content-Length: "[..], length, b"\r\n\r\n"];
        let lines = line.into_iter().chain(header_lines(&self.headers));
        Bytes::concat(lines.chain(end))
    }
}

/// The wire parts of `headers`: `name: value\r\n` each.
fn header_lines(headers: &[(String, String)]) -> impl Iterator<Item = &[u8]> + Clone {
    headers
        .iter()
        .flat_map(|(n, v)| [n.as_bytes(), b": ", v.as_bytes(), b"\r\n"])
}

/// Formats `n` in decimal at the front of `buf` (20 bytes hold any
/// `u64`) and returns the digits.
fn decimal(buf: &mut [u8], n: u64) -> &[u8] {
    let unused = {
        let mut rest = &mut *buf;
        let _ = write!(rest, "{n}");
        rest.len()
    };
    let used = buf.len() - unused;
    buf.get(..used).unwrap_or_default()
}

/// Finds the end of the header block (`\r\n\r\n`); returns the offset just
/// past it.
fn header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Incrementally parses an HTTP request from `buf`.
///
/// Returns `Some((request, bytes_consumed))` once the full header block is
/// available, `None` while incomplete. Malformed heads also return `None`
/// (the caller treats them as not-yet-parseable; simulated clients never
/// send garbage).
pub fn parse_request(buf: &[u8]) -> Option<(HttpRequest, usize)> {
    let end = header_end(buf)?;
    let head = std::str::from_utf8(buf.get(..end - 4)?).ok()?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    let version = parts.next()?.to_string();
    if !version.starts_with("HTTP/") {
        return None;
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (n, v) = line.split_once(':')?;
        headers.push((n.trim().to_string(), v.trim().to_string()));
    }
    Some((
        HttpRequest {
            method,
            target,
            version,
            headers,
        },
        end,
    ))
}

/// Incrementally parses an HTTP response (head + full `Content-Length`
/// body) from `buf`.
///
/// Returns `Some((response, bytes_consumed))` when complete.
pub fn parse_response(buf: &[u8]) -> Option<(HttpResponse, usize)> {
    let (mut resp, end, content_length) = parse_response_head(buf)?;
    resp.body = Bytes::copy_from_slice(buf.get(end..end + content_length)?);
    Some((resp, end + content_length))
}

/// Parses a complete response head into `(response with an empty body, head
/// length, Content-Length)`: enough to count the body instead of buffering it.
pub fn parse_response_head(buf: &[u8]) -> Option<(HttpResponse, usize, usize)> {
    let end = header_end(buf)?;
    let head = std::str::from_utf8(buf.get(..end - 4)?).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let mut parts = status_line.split(' ');
    let version = parts.next()?.to_string();
    let status: u16 = parts.next()?.parse().ok()?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (n, v) = line.split_once(':')?;
        let (n, v) = (n.trim(), v.trim());
        if n.eq_ignore_ascii_case("Content-Length") {
            content_length = v.parse().ok()?;
        } else {
            headers.push((n.to_string(), v.to_string()));
        }
    }
    Some((
        HttpResponse {
            status,
            version,
            headers,
            body: Bytes::new(),
        },
        end,
        content_length,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(resp: &HttpResponse) -> Vec<u8> {
        [&resp.encode_head()[..], &resp.body[..]].concat()
    }

    #[test]
    fn request_roundtrip_with_headers() {
        let req = HttpRequest::get("/a/b.css?v=2")
            .http11()
            .with_header("Host", "site.test")
            .with_header("Cookie", "a=1; session=xyz")
            .with_header("Accept-Language", "en-GB");
        let enc = req.encode();
        let (parsed, used) = parse_request(&enc).unwrap();
        assert_eq!(used, enc.len());
        assert_eq!(parsed, req);
        assert_eq!(parsed.path(), "/a/b.css");
        assert_eq!(parsed.host(), Some("site.test"));
        assert_eq!(parsed.cookie("session"), Some("xyz"));
        assert_eq!(parsed.cookie("missing"), None);
        assert!(parsed.keep_alive());
    }

    #[test]
    fn heads_match_the_formatted_text() {
        let req = HttpRequest::get("/a?b=c")
            .http11()
            .with_header("Host", "h")
            .with_header("X", "");
        let want = "GET /a?b=c HTTP/1.1\r\nHost: h\r\nX: \r\n\r\n";
        assert_eq!(req.encode(), want);
        assert_eq!(HttpRequest::get("/").encode(), "GET / HTTP/1.0\r\n\r\n");
        for (status, len) in [(200, 0), (404, 9), (503, 442_368), (65_535, 1 << 40)] {
            let resp = HttpResponse {
                status,
                version: "HTTP/1.1".into(),
                headers: vec![("Server".into(), "s".into())],
                body: Bytes::new(),
            };
            let reason = match status {
                200 => "OK",
                404 => "Not Found",
                _ => "Status",
            };
            let mut want = format!("HTTP/1.1 {status} {reason}\r\nServer: s\r\n");
            want.push_str(&format!("Content-Length: {}\r\n\r\n", resp.body.len()));
            assert_eq!(resp.encode_head(), want.as_str());
            let mut digits = [0u8; 20];
            assert_eq!(decimal(&mut digits, len), len.to_string().as_bytes());
        }
        let max = u64::MAX.to_string();
        assert_eq!(decimal(&mut [0u8; 20], u64::MAX), max.as_bytes());
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = HttpRequest::get("/");
        assert!(!req.keep_alive());
        let ka = HttpRequest::get("/").with_header("Connection", "keep-alive");
        assert!(ka.keep_alive());
        let cl = HttpRequest::get("/")
            .http11()
            .with_header("Connection", "close");
        assert!(!cl.keep_alive());
    }

    #[test]
    fn incremental_request_parsing() {
        let enc = HttpRequest::get("/x").with_header("Host", "h").encode();
        for cut in 0..enc.len() {
            assert!(parse_request(&enc[..cut]).is_none(), "cut={cut}");
        }
        assert!(parse_request(&enc).is_some());
    }

    #[test]
    fn request_parse_with_trailing_data() {
        let enc = HttpRequest::get("/x").encode();
        let mut buf = enc.to_vec();
        buf.extend_from_slice(b"GET /next HTTP/1.1\r\n");
        let (req, used) = parse_request(&buf).unwrap();
        assert_eq!(req.target, "/x");
        assert_eq!(used, enc.len());
    }

    #[test]
    fn response_roundtrip() {
        let resp = HttpResponse::ok(Bytes::from(vec![7u8; 46_000]))
            .with_header("Content-Type", "image/jpeg");
        let enc = wire(&resp);
        let (parsed, used) = parse_response(&enc).unwrap();
        assert_eq!(used, enc.len());
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body.len(), 46_000);
        assert_eq!(parsed.headers, resp.headers);
    }

    #[test]
    fn response_waits_for_body() {
        let resp = HttpResponse::ok(Bytes::from_static(b"0123456789"));
        let enc = wire(&resp);
        assert!(parse_response(&enc[..enc.len() - 1]).is_none());
        assert!(parse_response(&enc).is_some());
    }

    #[test]
    fn head_parses_before_the_body_arrives() {
        let resp = HttpResponse::ok(Bytes::from(vec![1u8; 5000])).with_header("Server", "s");
        let head = resp.encode_head();
        let enc = wire(&resp);
        assert_eq!(&enc[..head.len()], &head[..]);
        assert!(parse_response_head(&head[..head.len() - 1]).is_none());
        let (parsed, head_len, content_length) = parse_response_head(&head).unwrap();
        assert_eq!((head_len, content_length), (head.len(), 5000));
        assert_eq!((parsed.status, parsed.body.len()), (200, 0));
        assert_eq!(parsed.headers, resp.headers);
    }

    #[test]
    fn not_found_encodes() {
        let enc = wire(&HttpResponse::not_found());
        let (parsed, _) = parse_response(&enc).unwrap();
        assert_eq!(parsed.status, 404);
    }

    #[test]
    fn malformed_head_rejected() {
        assert!(parse_request(b"NOT A REQUEST\r\n\r\n").is_none());
        assert!(parse_request(b"GET /\r\n\r\n").is_none()); // missing version
        assert!(parse_response(b"HTTP/1.0 abc OK\r\n\r\n").is_none());
    }
}
