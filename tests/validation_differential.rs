//! The communication engine's validator, checked against the rules it
//! replaced.
//!
//! `validate_request_shared` reads a request where it lies: one head scan,
//! a borrowed target, a view of the body. The reference below is the
//! validator as it was when it built an owned request: the one-shot
//! `parse_request` (which reads the target lossily), the owned URI split and
//! the host checks that walked the host once per rule. A seeded corpus of
//! request bytes — methods, target forms, hosts, ports, bodies at and past
//! the limit, `Content-Length` fields that are short, long or repeated,
//! policies on and off, and random byte mutations of valid requests — must
//! get the same verdict and the same error text from both, and on
//! acceptance the same method, target, body and host. The one divergence is
//! a target that is not UTF-8: the reference read it lossily, so two
//! targets could name one object; it is now refused.
//!
//! The services answer that request with a status, a content type and a
//! body; the bytes the engine hands downstream must be those of the HTTP
//! response they stand for, for every service of the demo registry.

use dandelion_apps::setup::{demo_services, DEMO_TOKEN};
use dandelion_common::rng::SplitMix64;
use dandelion_common::{utf8_lossy, DandelionError, SharedBytes};
use dandelion_http::validate::{validate_request_shared, ValidationPolicy};
use dandelion_http::{parse_request, parse_request_frame, HttpRequest, HttpResponse, Method};

/// Request byte strings in the corpus.
const CASES: u64 = 4_000;

/// The body limit of the policies the corpus runs under.
const MAX_BODY: usize = 48;

/// Hosts on the allow-list when a policy has one.
const ALLOWED: [&str; 3] = ["auth.internal", "s3.internal", "10.0.0.1"];

/// Words of each refusal's message, in the order the rules are checked.
const RULES: [&str; 7] = [
    "malformed request",
    "is not allowed",
    "exceeds the",
    "is not a valid URI",
    "origin-form targets are not allowed",
    "is neither a valid IP address",
    "is not in the allow-list",
];

/// What the reference accepts: the parts a service and the registry read.
#[derive(Debug, PartialEq, Eq)]
struct Accepted {
    method: Method,
    target: String,
    body: Vec<u8>,
    host: String,
}

/// The reference's refusal, and whether it was about the target (its URI
/// or its host) rather than something it checks before reading the target.
#[derive(Debug)]
struct Refused {
    at_target: bool,
    message: String,
}

fn refused(at_target: bool, message: String) -> Refused {
    Refused {
        at_target,
        message: DandelionError::InvalidRequest(message).to_string(),
    }
}

/// The owned URI split the validator used: scheme, host and port of an
/// absolute target, or an empty host for an origin-form one.
fn reference_uri(target: &str) -> Option<(String, String)> {
    if target.starts_with('/') {
        return Some((String::new(), String::new()));
    }
    let (scheme, rest) = target.split_once("://")?;
    if scheme != "http" && scheme != "https" {
        return None;
    }
    let authority = rest.find('/').map_or(rest, |index| &rest[..index]);
    if authority.is_empty() {
        return None;
    }
    let host = match authority.rsplit_once(':') {
        Some((host, port)) if !port.is_empty() && !host.is_empty() => {
            port.parse::<u16>().ok()?;
            host
        }
        _ => authority,
    };
    Some((scheme.to_string(), host.to_string()))
}

fn reference_ipv4(host: &str) -> bool {
    host.split('.').count() == 4
        && host.split('.').all(|octet| {
            !octet.is_empty()
                && octet.len() <= 3
                && octet.chars().all(|c| c.is_ascii_digit())
                && octet.parse::<u16>().map(|v| v <= 255).unwrap_or(false)
        })
}

fn reference_domain(host: &str) -> bool {
    if host.is_empty() || host.len() > 253 {
        return false;
    }
    let labels = || host.split('.');
    if labels().any(str::is_empty) {
        return false;
    }
    let all_labels_valid = labels().all(|label| {
        label.len() <= 63
            && label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')
            && !label.starts_with('-')
            && !label.ends_with('-')
    });
    all_labels_valid && !labels().all(|label| label.chars().all(|c| c.is_ascii_digit()))
}

/// The validator's rules over the owned request `parse_request` builds.
fn reference(raw: &[u8], policy: &ValidationPolicy) -> Result<Accepted, Refused> {
    let request =
        parse_request(raw).map_err(|err| refused(false, format!("malformed request: {err}")))?;
    if !policy.allowed_methods.contains(&request.method) {
        let message = format!("method {} is not allowed", request.method);
        return Err(refused(false, message));
    }
    if request.body.len() > policy.max_body_bytes {
        let message = format!(
            "body of {} bytes exceeds the {}-byte limit",
            request.body.len(),
            policy.max_body_bytes
        );
        return Err(refused(false, message));
    }
    let (_, host) = reference_uri(&request.target).ok_or_else(|| {
        refused(
            true,
            format!("target `{}` is not a valid URI", request.target),
        )
    })?;
    if host.is_empty() {
        if !policy.allow_origin_form {
            let message = "origin-form targets are not allowed; requests must name a host";
            return Err(refused(true, message.to_string()));
        }
    } else {
        if !reference_ipv4(&host) && !reference_domain(&host) {
            let message =
                format!("host `{host}` is neither a valid IP address nor a valid domain name");
            return Err(refused(true, message));
        }
        if !policy.allowed_hosts.is_empty() && !policy.allowed_hosts.contains(&host) {
            return Err(refused(
                true,
                format!("host `{host}` is not in the allow-list"),
            ));
        }
    }
    Ok(Accepted {
        method: request.method,
        target: request.target,
        body: request.body.to_vec(),
        host,
    })
}

/// What the borrowed validator makes of `raw`, in the reference's terms.
fn borrowed(raw: &SharedBytes, policy: &ValidationPolicy) -> Result<Accepted, String> {
    match validate_request_shared(raw, policy) {
        Ok(validated) => {
            assert!(
                SharedBytes::same_buffer(&validated.request.body, raw),
                "the body is a view of the request's buffer"
            );
            Ok(Accepted {
                method: validated.request.method,
                target: validated.request.target.to_string(),
                body: validated.request.body.to_vec(),
                host: validated.uri.host.to_string(),
            })
        }
        Err(err) => Err(err.to_string()),
    }
}

fn pick<'a, T>(rng: &mut SplitMix64, choices: &'a [T]) -> &'a T {
    &choices[rng.next_bounded(choices.len() as u64) as usize]
}

fn label(length: usize) -> String {
    "l".repeat(length)
}

fn arbitrary_host(rng: &mut SplitMix64) -> Vec<u8> {
    let octet = |rng: &mut SplitMix64| rng.next_bounded(256).to_string();
    match rng.next_bounded(20) {
        0 => format!(
            "{}.{}.{}.{}",
            octet(rng),
            octet(rng),
            octet(rng),
            octet(rng)
        )
        .into_bytes(),
        1 => format!("10.{}.0.{}", 256 + rng.next_bounded(744), octet(rng)).into_bytes(),
        2 => format!("10.{}.{}", octet(rng), octet(rng)).into_bytes(),
        3 => b"10.0.0.1.5".to_vec(),
        4 => b"svc-a.logs-0.internal".to_vec(),
        5 => pick(rng, &["-svc.internal", "svc-.internal", "svc.internal-"])
            .as_bytes()
            .to_vec(),
        6 => pick(rng, &["a..internal", ".internal", "internal.", "."])
            .as_bytes()
            .to_vec(),
        7 => format!("{}.internal", label(63 + rng.next_bounded(2) as usize)).into_bytes(),
        8 => pick(
            rng,
            &["123.456", "300.300.300.300", "1", "123.a1", "0x1.internal"],
        )
        .as_bytes()
        .to_vec(),
        9 => pick(rng, &["gr\u{fc}ezi.ch", "\u{3b1}.internal"])
            .as_bytes()
            .to_vec(),
        10 => b"bad\xffhost.internal".to_vec(),
        11 => pick(rng, &["bad_host", "bad host", "exa!mple"])
            .as_bytes()
            .to_vec(),
        12 => [
            label(63),
            label(63),
            label(63),
            label(61 + rng.next_bounded(2) as usize),
        ]
        .join(".")
        .into_bytes(),
        13 => b"".to_vec(),
        _ => pick(rng, &ALLOWED).as_bytes().to_vec(),
    }
}

fn arbitrary_target(rng: &mut SplitMix64) -> Vec<u8> {
    let mut path = match rng.next_bounded(8) {
        0 => Vec::new(),
        1 => b"/obj/caf\xc3\xa9".to_vec(),
        2 => b"/bucket/a\xffb".to_vec(),
        3 => b"/bucket/a\xfeb".to_vec(),
        _ => format!("/bucket/key-{}", rng.next_bounded(100)).into_bytes(),
    };
    if rng.bernoulli(0.25) {
        path.extend_from_slice(b"?token=demo&v=1");
    }
    if rng.bernoulli(0.15) {
        let mut origin = b"/".to_vec();
        origin.extend_from_slice(&path);
        return origin;
    }
    let mut target = pick(
        rng,
        &[
            "http://", "http://", "http://", "https://", "ftp://", "http:/",
        ],
    )
    .as_bytes()
    .to_vec();
    target.extend_from_slice(&arbitrary_host(rng));
    let port = pick(
        rng,
        &["", "", "", "", ":8080", ":443", ":99999", ":", ":x1"],
    );
    target.extend_from_slice(port.as_bytes());
    target.extend_from_slice(&path);
    target
}

/// One request as a compute function might write it.
fn arbitrary_request(rng: &mut SplitMix64) -> Vec<u8> {
    let method = pick(
        rng,
        &[
            "GET", "GET", "GET", "GET", "PUT", "POST", "POST", "POST", "DELETE", "HEAD", "PATCH",
            "get", "Post",
        ],
    );
    let body = match rng.next_bounded(6) {
        0 => Vec::new(),
        1 => vec![b'b'; MAX_BODY],
        2 => vec![b'b'; MAX_BODY + 1],
        _ => vec![b'x'; rng.next_bounded(MAX_BODY as u64) as usize],
    };
    let mut raw = Vec::new();
    raw.extend_from_slice(method.as_bytes());
    raw.push(b' ');
    raw.extend_from_slice(&arbitrary_target(rng));
    raw.extend_from_slice(b" HTTP/1.1\r\n");
    if rng.bernoulli(0.5) {
        raw.extend_from_slice(b"Host: bench\r\nX-Trace: 7\r\n");
    }
    let declared = body.len();
    match rng.next_bounded(12) {
        // No length: the rest of the bytes is the body.
        0 | 1 => {}
        2 => raw.extend_from_slice(
            format!("Content-Length: {}\r\n", declared.saturating_sub(1)).as_bytes(),
        ),
        3 => raw.extend_from_slice(format!("Content-Length: {}\r\n", declared + 1).as_bytes()),
        4 => raw.extend_from_slice(
            format!("Content-Length: {declared}\r\ncontent-length: {declared}\r\n").as_bytes(),
        ),
        5 => raw.extend_from_slice(
            format!(
                "Content-Length: {declared}\r\nContent-Length: {}\r\n",
                declared + 2
            )
            .as_bytes(),
        ),
        _ => raw.extend_from_slice(format!("Content-Length: {declared}\r\n").as_bytes()),
    }
    raw.extend_from_slice(b"\r\n");
    raw.extend_from_slice(&body);
    // A fifth of the corpus is a request with one to three random bytes.
    if rng.bernoulli(0.2) {
        for _ in 0..1 + rng.next_bounded(3) {
            let position = rng.next_bounded(raw.len() as u64) as usize;
            raw[position] = rng.next_u64() as u8;
        }
    }
    raw
}

fn arbitrary_policy(rng: &mut SplitMix64) -> ValidationPolicy {
    let mut policy = ValidationPolicy {
        max_body_bytes: MAX_BODY,
        allow_origin_form: rng.bernoulli(0.5),
        ..ValidationPolicy::default()
    };
    if rng.bernoulli(0.3) {
        policy.allowed_hosts = ALLOWED.iter().map(|host| host.to_string()).collect();
    }
    if rng.bernoulli(0.2) {
        policy.allowed_methods.push(Method::Head);
    }
    policy
}

/// Whether the request line of `raw` has a target that is not UTF-8.
fn target_is_not_utf8(raw: &SharedBytes) -> bool {
    parse_request_frame(raw).is_ok_and(|frame| std::str::from_utf8(frame.target()).is_err())
}

#[test]
fn the_borrowed_validator_gives_the_owned_rules_verdicts_on_a_seeded_corpus() {
    // Verdicts seen, by the first words of the message, and acceptances.
    let mut seen = std::collections::BTreeMap::<String, usize>::new();
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xD1FF ^ seed);
        let raw = arbitrary_request(&mut rng);
        let policy = arbitrary_policy(&mut rng);
        let shared = SharedBytes::from_vec(raw.clone());
        let context = format!("seed {seed}: {:?}", utf8_lossy(&raw));
        let expected = reference(&raw, &policy);
        let got = borrowed(&shared, &policy);
        let verdict = match (&expected, &got) {
            // A target that is not UTF-8 is refused where the reference
            // would have read it lossily.
            (Ok(_), _)
            | (
                Err(Refused {
                    at_target: true, ..
                }),
                _,
            ) if target_is_not_utf8(&shared) => {
                let lossy = utf8_lossy(parse_request_frame(&shared).unwrap().target()).into_owned();
                let message =
                    DandelionError::InvalidRequest(format!("target `{lossy}` is not a valid URI"))
                        .to_string();
                assert_eq!(got, Err(message), "{context}");
                "target not UTF-8".to_string()
            }
            (Ok(accepted), Ok(borrowed)) => {
                assert_eq!(borrowed, accepted, "{context}");
                "accepted".to_string()
            }
            (Err(refused), Err(message)) => {
                assert_eq!(message, &refused.message, "{context}");
                let rule = RULES.iter().find(|rule| message.contains(*rule));
                rule.expect("a refusal names its rule").to_string()
            }
            _ => panic!("{context}: reference {expected:?}, borrowed {got:?}"),
        };
        *seen.entry(verdict).or_default() += 1;
    }
    eprintln!("{seen:#?}");
    // Every rule was exercised, and the corpus was not all refusals.
    let count = |verdict: &str| seen.get(verdict).copied().unwrap_or(0);
    for rule in RULES.iter().chain(&["target not UTF-8"]) {
        assert!(count(rule) > 0, "no case of `{rule}` in {seen:#?}");
    }
    assert!(
        count("accepted") as u64 > CASES / 20,
        "too few acceptances: {seen:#?}"
    );
}

#[test]
fn every_demo_service_replies_with_the_bytes_of_its_http_response() {
    let services = demo_services(false);
    let policy = ValidationPolicy::default();
    for host in services.hosts() {
        let url = |path: &str| format!("http://{host}{path}");
        // A request each service answers, and one it refuses.
        let requests = match host.as_str() {
            "auth.internal" => [
                HttpRequest::post(url("/authorize"), DEMO_TOKEN.as_bytes().to_vec()),
                HttpRequest::post(url("/authorize"), b"wrong".to_vec()),
            ],
            "s3.internal" => [
                HttpRequest::get(url("/images/input.qoi")),
                HttpRequest::get(url("/images/missing.qoi")),
            ],
            "llm.internal" => [
                HttpRequest::post(url("/v1/generate"), b"best movie of 1994?".to_vec()),
                HttpRequest::get(url("/v1/generate")),
            ],
            "db.internal" => [
                HttpRequest::post(url("/query"), b"SELECT name FROM cities LIMIT 1".to_vec()),
                HttpRequest::post(url("/query"), b"DROP TABLE cities".to_vec()),
            ],
            logs if logs.starts_with("logs-") => [
                HttpRequest::get(url("/logs")),
                HttpRequest::post(url("/logs"), b"x".to_vec()),
            ],
            other => panic!("no row for the demo service at {other}"),
        };
        for request in requests {
            let raw = SharedBytes::from_vec(request.to_bytes());
            let validated = validate_request_shared(&raw, &policy).expect("a valid request");
            let reply = services
                .dispatch(&validated.uri, &validated.request)
                .response;
            let mut response = HttpResponse::new(reply.status, reply.body.clone());
            if let Some(content_type) = reply.content_type {
                response = response.with_header("Content-Type", content_type);
            }
            assert_eq!(reply.content_length, None, "{host}");
            assert_eq!(
                reply.to_shared().as_slice(),
                response.to_bytes(),
                "{host}: {request:?}"
            );
        }
    }
}
