//! The emulated website catalog.
//!
//! The paper's testbed (§7 *Setup*) emulates four university websites:
//! "each online service emulates a university website storing faculty and
//! student webpages and embedded objects ... In total we collected 10K+
//! objects with sizes 1K–442KB (median 46KB). Each web-request fetches an
//! HTML page and its embedded objects."
//!
//! [`SiteCatalog::generate`] synthesizes an equivalent catalog: pages with
//! embedded objects whose sizes follow a log-normal distribution clipped to
//! [1 KB, 442 KB] and calibrated to a 46 KB median.

use yoda_netsim::{Bytes, Rng};

/// Identifies an object within a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectId {
    /// Index of the site.
    pub(crate) site: usize,
    /// Index of the object within the site.
    pub(crate) object: usize,
}

/// One fetchable object.
#[derive(Debug, Clone)]
pub struct Object {
    /// URL path (e.g. `/s0/faculty12/pic3.jpg`).
    pub path: String,
    /// Body size in bytes.
    pub size: usize,
}

/// A web page: an HTML object plus its embedded objects.
#[derive(Debug, Clone)]
pub struct Page {
    /// The HTML document.
    pub html: ObjectId,
    /// Embedded objects fetched after the HTML.
    pub embedded: Vec<ObjectId>,
}

/// Configuration for synthesizing one site.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Number of pages.
    pub pages: usize,
    /// Embedded objects per page (min, max inclusive).
    pub embedded_per_page: (usize, usize),
    /// Hostname the site answers to (`Host` header).
    pub host: String,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            pages: 250,
            embedded_per_page: (4, 14),
            host: "mysite.test".to_string(),
        }
    }
}

/// One emulated website.
#[derive(Debug, Clone)]
pub struct Site {
    /// Hostname.
    pub host: String,
    /// All objects.
    pub objects: Vec<Object>,
    /// Pages referencing the objects.
    pub(crate) pages: Vec<Page>,
}

/// A set of sites, resolving request paths to objects.
///
/// # Examples
///
/// ```
/// use yoda_http::{SiteCatalog, SiteConfig};
///
/// let catalog = SiteCatalog::generate(42, &[SiteConfig::default()]);
/// assert!(catalog.total_objects() >= 1000);
/// let page = catalog.page(0, 0);
/// assert!(!page.embedded.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SiteCatalog {
    sites: Vec<Site>,
    /// `MAX_OBJECT_BYTES` of filler; every object's body is a prefix of it.
    /// Byte `i` is `i % 251` ([`filler_byte`]), so a byte that arrives
    /// shifted, duplicated or dropped changes what a receiver reads.
    filler: Bytes,
}

/// Fallback site for out-of-range indices: the total accessors on
/// [`SiteCatalog`] return these instead of panicking on the packet path.
static EMPTY_SITE: Site = Site {
    host: String::new(),
    objects: Vec::new(),
    pages: Vec::new(),
};

/// Fallback page, paired with [`EMPTY_SITE`].
static EMPTY_PAGE: Page = Page {
    html: ObjectId { site: 0, object: 0 },
    embedded: Vec::new(),
};

/// Median object size from the paper (46 KB).
pub(crate) const MEDIAN_OBJECT_BYTES: usize = 46 * 1024;
/// Smallest object size from the paper (1 KB).
pub const MIN_OBJECT_BYTES: usize = 1024;
/// Largest object size from the paper (442 KB).
pub const MAX_OBJECT_BYTES: usize = 442 * 1024;

/// Byte `i` of every object body: `i % 251`. The period is prime, so no
/// shift shorter than it reads the same bytes.
pub(crate) fn filler_byte(i: usize) -> u8 {
    (i % 251) as u8
}

impl SiteCatalog {
    /// Synthesizes a catalog of sites, deterministically from `seed`.
    pub fn generate(seed: u64, configs: &[SiteConfig]) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let mut sites = Vec::with_capacity(configs.len());
        // Log-normal with median 46 KB: exp(N(ln 46K, sigma)). sigma chosen
        // so the clipped tail reaches ~442 KB but most mass is 10-150 KB.
        let mu = (MEDIAN_OBJECT_BYTES as f64).ln();
        let sigma = 1.0;
        for (si, cfg) in configs.iter().enumerate() {
            let mut objects = Vec::new();
            let mut pages = Vec::new();
            for pi in 0..cfg.pages {
                // HTML page object: smaller (1-30 KB).
                let html_size = rng.gen_range(MIN_OBJECT_BYTES..30 * 1024);
                let html_id = ObjectId {
                    site: si,
                    object: objects.len(),
                };
                let html_path = format!("/s{si}/page{pi}/index.html");
                objects.push(Object {
                    path: html_path,
                    size: html_size,
                });
                let n_emb = rng.gen_range(cfg.embedded_per_page.0..=cfg.embedded_per_page.1);
                let mut embedded = Vec::with_capacity(n_emb);
                for oi in 0..n_emb {
                    let normal = sample_normal(&mut rng);
                    let size = (mu + sigma * normal).exp() as usize;
                    let size = size.clamp(MIN_OBJECT_BYTES, MAX_OBJECT_BYTES);
                    let ext = match oi % 4 {
                        0 => "jpg",
                        1 => "css",
                        2 => "js",
                        _ => "png",
                    };
                    let id = ObjectId {
                        site: si,
                        object: objects.len(),
                    };
                    let path = format!("/s{si}/page{pi}/obj{oi}.{ext}");
                    objects.push(Object { path, size });
                    embedded.push(id);
                }
                pages.push(Page {
                    html: html_id,
                    embedded,
                });
            }
            sites.push(Site {
                host: cfg.host.clone(),
                objects,
                pages,
            });
        }
        SiteCatalog {
            sites,
            filler: (0..MAX_OBJECT_BYTES).map(filler_byte).collect(),
        }
    }

    /// An object body of `size` bytes: a view of the shared filler, no copy.
    pub fn body(&self, size: usize) -> Bytes {
        self.filler.slice(..size.min(self.filler.len()))
    }

    /// A site by index; an empty site for out-of-range indices.
    pub fn site(&self, i: usize) -> &Site {
        self.sites.get(i).unwrap_or(&EMPTY_SITE)
    }

    /// Total objects across all sites.
    pub fn total_objects(&self) -> usize {
        self.sites.iter().map(|s| s.objects.len()).sum()
    }

    /// A page by site index and page number (wrapped onto the site's
    /// pages); an empty page for out-of-range site indices.
    pub fn page(&self, site: usize, page: usize) -> &Page {
        let s = self.site(site);
        if s.pages.is_empty() {
            return &EMPTY_PAGE;
        }
        s.pages.get(page % s.pages.len()).unwrap_or(&EMPTY_PAGE)
    }

    /// Resolves a URL path to an object. The path is parsed, not looked
    /// up: `/s{site}/page{page}/index.html` names a page's HTML and
    /// `/s{site}/page{page}/obj{k}.{ext}` its `k`-th embedded object, and
    /// the answer stands only if that object's path is exactly `path` —
    /// the one object, if any, whose path it is.
    pub fn lookup(&self, path: &str) -> Option<(ObjectId, &Object)> {
        let (site, rest) = path.strip_prefix("/s")?.split_once("/page")?;
        let (page, leaf) = rest.split_once('/')?;
        let page = self
            .sites
            .get(site.parse::<usize>().ok()?)?
            .pages
            .get(page.parse::<usize>().ok()?)?;
        let id = match leaf {
            "index.html" => page.html,
            _ => {
                let (k, _ext) = leaf.strip_prefix("obj")?.split_once('.')?;
                *page.embedded.get(k.parse::<usize>().ok()?)?
            }
        };
        let obj = self.object(id)?;
        (obj.path == path).then_some((id, obj))
    }

    /// The URL path of an object; `""` for a dangling id.
    pub fn path_of(&self, id: ObjectId) -> &str {
        self.object(id).map_or("", |o| o.path.as_str())
    }

    fn object(&self, id: ObjectId) -> Option<&Object> {
        self.sites.get(id.site)?.objects.get(id.object)
    }
}

/// Standard normal via Box-Muller (avoids pulling in rand_distr).
fn sample_normal(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Median object size over the whole catalog; 0 for an empty one.
    fn median_object_size(c: &SiteCatalog) -> usize {
        let objects = c.sites.iter().flat_map(|s| s.objects.iter());
        let mut sizes: Vec<usize> = objects.map(|o| o.size).collect();
        sizes.sort_unstable();
        sizes.get(sizes.len() / 2).copied().unwrap_or(0)
    }

    fn catalog() -> SiteCatalog {
        SiteCatalog::generate(
            7,
            &[
                SiteConfig {
                    pages: 300,
                    ..SiteConfig::default()
                },
                SiteConfig {
                    pages: 300,
                    host: "other.test".into(),
                    ..SiteConfig::default()
                },
            ],
        )
    }

    #[test]
    fn sizes_match_paper_distribution() {
        let c = catalog();
        assert!(c.total_objects() > 5000, "got {}", c.total_objects());
        let median = median_object_size(&c);
        // Median within 2x of the paper's 46 KB (html pages drag it down).
        assert!(
            median > MEDIAN_OBJECT_BYTES / 3 && median < MEDIAN_OBJECT_BYTES * 2,
            "median {median}"
        );
        for site in 0..c.sites.len() {
            for o in &c.site(site).objects {
                assert!(o.size >= MIN_OBJECT_BYTES && o.size <= MAX_OBJECT_BYTES);
            }
        }
    }

    #[test]
    fn lookup_by_path_roundtrips() {
        let c = catalog();
        let page = c.page(1, 5);
        let html_path = c.path_of(page.html).to_string();
        let (id, obj) = c.lookup(&html_path).unwrap();
        assert_eq!(id, page.html);
        assert_eq!(obj.path, html_path);
        assert!(c.lookup("/nonexistent").is_none());
    }

    #[test]
    fn lookup_answers_exactly_the_generated_paths() {
        let c = catalog();
        for site in 0..c.sites.len() {
            for (object, o) in c.site(site).objects.iter().enumerate() {
                let (id, found) = c.lookup(&o.path).unwrap();
                assert_eq!(
                    (id, found.path.as_str()),
                    (ObjectId { site, object }, o.path.as_str())
                );
            }
        }
        let html = c.path_of(c.page(0, 3).html).to_string();
        let emb = c.path_of(c.page(0, 3).embedded[1]).to_string();
        assert_eq!(emb, "/s0/page3/obj1.css");
        for near in [
            "/s0/page3/obj1.jpg",
            "/s00/page3/obj1.css",
            "/s0/page3/obj+1.css",
            "/s0/page3/obj99.css",
            "/s0/page300/index.html",
            "/s2/page3/index.html",
            "/s0/page3/index.htm",
            "/s0/page3/index.html/",
            "s0/page3/index.html",
            "/s0/page3",
            "",
        ] {
            assert!(c.lookup(near).is_none(), "{near}");
        }
        assert!(c.lookup(&html).is_some());
    }

    #[test]
    fn deterministic_generation() {
        let a = catalog();
        let b = catalog();
        assert_eq!(a.total_objects(), b.total_objects());
        assert_eq!(median_object_size(&a), median_object_size(&b));
    }

    #[test]
    fn bodies_share_the_filler() {
        let c = catalog();
        let (a, b) = (c.body(MAX_OBJECT_BYTES), c.body(1024));
        assert_eq!((a.len(), b.len()), (MAX_OBJECT_BYTES, 1024));
        assert_eq!(a.as_ptr(), b.as_ptr(), "views of one allocation");
        assert!(a.iter().enumerate().all(|(i, &x)| x == filler_byte(i)));
        assert_eq!(c.body(usize::MAX).len(), MAX_OBJECT_BYTES);
    }

    #[test]
    fn pages_have_embedded_objects() {
        let c = catalog();
        for pi in 0..10 {
            let p = c.page(0, pi);
            assert!(p.embedded.len() >= 4);
        }
    }
}
