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

use bytes::Bytes;
use yoda_netsim::rng::{Distribution, Rng};
use yoda_netsim::FlowTable;

/// Identifies an object within a catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectId {
    /// Index of the site.
    pub site: usize,
    /// Index of the object within the site.
    pub object: usize,
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
    pub pages: Vec<Page>,
}

/// A set of sites with path-indexed lookup.
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
    by_path: FlowTable<String, ObjectId>,
    /// `MAX_OBJECT_BYTES` of filler; every object's body is a prefix of it.
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
pub const MEDIAN_OBJECT_BYTES: usize = 46 * 1024;
/// Smallest object size from the paper (1 KB).
pub const MIN_OBJECT_BYTES: usize = 1024;
/// Largest object size from the paper (442 KB).
pub const MAX_OBJECT_BYTES: usize = 442 * 1024;

impl SiteCatalog {
    /// Synthesizes a catalog of sites, deterministically from `seed`.
    pub fn generate(seed: u64, configs: &[SiteConfig]) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let mut sites = Vec::with_capacity(configs.len());
        let mut by_path = FlowTable::new();
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
                by_path.insert(html_path.clone(), html_id);
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
                    let ext = ["jpg", "css", "js", "png"][oi % 4];
                    let id = ObjectId {
                        site: si,
                        object: objects.len(),
                    };
                    let path = format!("/s{si}/page{pi}/obj{oi}.{ext}");
                    by_path.insert(path.clone(), id);
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
            by_path,
            filler: Bytes::from(vec![b'x'; MAX_OBJECT_BYTES]),
        }
    }

    /// An object body of `size` bytes: a view of the shared filler, no copy.
    pub fn body(&self, size: usize) -> Bytes {
        self.filler.slice(..size.min(self.filler.len()))
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
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

    /// Resolves a URL path to an object.
    pub fn lookup(&self, path: &str) -> Option<(ObjectId, &Object)> {
        let id = *self.by_path.get(path)?;
        let obj = self.sites.get(id.site)?.objects.get(id.object)?;
        Some((id, obj))
    }

    /// The URL path of an object; `""` for a dangling id.
    pub fn path_of(&self, id: ObjectId) -> &str {
        self.object(id).map_or("", |o| o.path.as_str())
    }

    /// The size of an object; 0 for a dangling id.
    pub fn size_of(&self, id: ObjectId) -> usize {
        self.object(id).map_or(0, |o| o.size)
    }

    fn object(&self, id: ObjectId) -> Option<&Object> {
        self.sites.get(id.site)?.objects.get(id.object)
    }

    /// Median object size over the whole catalog (for sanity checks).
    pub fn median_object_size(&self) -> usize {
        let mut sizes: Vec<usize> = self
            .sites
            .iter()
            .flat_map(|s| s.objects.iter().map(|o| o.size))
            .collect();
        sizes.sort_unstable();
        sizes[sizes.len() / 2]
    }
}

/// Standard normal via Box-Muller (avoids pulling in rand_distr).
fn sample_normal(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A distribution adapter so callers can sample object indexes zipfian-ly.
#[derive(Debug, Clone)]
pub struct ZipfIndex {
    cdf: Vec<f64>,
}

impl ZipfIndex {
    /// Builds a Zipf(α) distribution over `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "empty support");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        ZipfIndex { cdf: weights }
    }
}

impl Distribution<usize> for ZipfIndex {
    fn sample(&self, rng: &mut Rng) -> usize {
        let u: f64 = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let median = c.median_object_size();
        // Median within 2x of the paper's 46 KB (html pages drag it down).
        assert!(
            median > MEDIAN_OBJECT_BYTES / 3 && median < MEDIAN_OBJECT_BYTES * 2,
            "median {median}"
        );
        for site in 0..c.num_sites() {
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
    fn deterministic_generation() {
        let a = catalog();
        let b = catalog();
        assert_eq!(a.total_objects(), b.total_objects());
        assert_eq!(a.median_object_size(), b.median_object_size());
    }

    #[test]
    fn bodies_share_the_filler() {
        let c = catalog();
        let (a, b) = (c.body(MAX_OBJECT_BYTES), c.body(1024));
        assert_eq!((a.len(), b.len()), (MAX_OBJECT_BYTES, 1024));
        assert_eq!(a.as_ptr(), b.as_ptr(), "views of one allocation");
        assert!(b.iter().all(|&x| x == b'x'));
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

    #[test]
    fn zipf_skews_to_head() {
        let z = ZipfIndex::new(100, 1.2);
        let mut rng = Rng::seed_from_u64(3);
        let mut head = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        assert!(head > N / 2, "head got {head}/{N}");
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn zipf_empty_panics() {
        ZipfIndex::new(0, 1.0);
    }
}
