//! Golden embeddings: an FNV-1a hash of the bits of every zoo member's train
//! and test embedding on every Table I replica at `tiny` scale with 30 %
//! uniform label noise and seed 1 (zoo seeded like the data).
//!
//! The golden reports pin only what reaches a verdict; these pins catch any
//! bit that moves in a transformation's output (the simulated encoders' matrix
//! products and `tanh`, the PCA, NCA and random projections, the
//! standardiser), whether or not it changes a decision. A change that moves
//! one must justify the new value and re-pin it; the failure message prints
//! every member's current hashes in the table's format.

use snoopy::data::registry::{load_with_noise, SizeScale};
use snoopy::linalg::Matrix;
use snoopy::prelude::*;

/// `(replica, zoo member, train hash, test hash)`.
const GOLDEN: [(&str, &str, u64, u64); 122] = [
    ("mnist", "raw", 0x70e4f38ca7bd7be8, 0xc73f063bb0b925f8),
    ("mnist", "pca32", 0x396640251dbe125d, 0xf28dc84e15f47154),
    ("mnist", "nca", 0x01ba3cfa0bcb76ed, 0x906e090b16380738),
    ("mnist", "random-proj32", 0x217f6d1979f2982d, 0xaa033e9714729f99),
    ("mnist", "alexnet", 0xb0133bd8247340ad, 0x6b9a4409cf859ac2),
    ("mnist", "googlenet", 0xf5f6922a4d921ea1, 0x277f95486c1a1f34),
    ("mnist", "vgg16", 0xc5ac69712109f99b, 0x2d4f65a9c2ec3f1a),
    ("mnist", "vgg19", 0x41be7042410fec43, 0x34ee7090d6dd4938),
    ("mnist", "inception-v3", 0x7a1dca42bd66ce6d, 0xf704795d41a0b9a2),
    ("mnist", "resnet50-v2", 0xfb1c366b6be05212, 0x47fb6ec6f0f1da83),
    ("mnist", "resnet101-v2", 0xbb5f5f196f09392d, 0x311ad84b7a18d64e),
    ("mnist", "resnet152-v2", 0xfaad5b6e00e0133b, 0xb2aa57049876ff91),
    ("mnist", "efficientnet-b0", 0x543110910f670045, 0x27ad6369ed3f63e1),
    ("mnist", "efficientnet-b1", 0xdb6bd105355a8858, 0x44050feeb5cf45b4),
    ("mnist", "efficientnet-b2", 0x5d3afce5b74e6b11, 0x91231ed5e59af7ca),
    ("mnist", "efficientnet-b3", 0xf56172e7923e8e25, 0x31f9d474ab1d54b4),
    ("mnist", "efficientnet-b4", 0xc9f47b922897e19f, 0xf9d95ee73d315d68),
    ("mnist", "efficientnet-b5", 0xafec243992c572f3, 0x0ded96176e1f0bfc),
    ("mnist", "efficientnet-b6", 0x25586f2fb58c53f8, 0xfb0a82357c98b200),
    ("mnist", "efficientnet-b7", 0xe279b4f8ddfedaa6, 0xac0855e026aa0496),
    ("cifar10", "raw", 0x6d804400989fa170, 0xfea4c9b5fb99c3c1),
    ("cifar10", "pca32", 0x8b46dbab732405ca, 0x57fc68608c7aae51),
    ("cifar10", "pca64", 0x349901512bcc3366, 0xda10d43cf32c6bfb),
    ("cifar10", "nca", 0xf3a892ffb8590c85, 0x5fc6fb8ef75f3dd1),
    ("cifar10", "random-proj32", 0x71bf64fbfe96d3cf, 0xfe48218bdd287efd),
    ("cifar10", "alexnet", 0xe1fd5ad188382817, 0x5363ae881dd50355),
    ("cifar10", "googlenet", 0x65f8f715e091d7e5, 0x9c8bbadad852042c),
    ("cifar10", "vgg16", 0x4364aee6290046d6, 0xcad500cfb2716c84),
    ("cifar10", "vgg19", 0x46855ba04a23a397, 0x799dd21c1add616f),
    ("cifar10", "inception-v3", 0x0689eddd78971dc8, 0x095a23c1256df71e),
    ("cifar10", "resnet50-v2", 0x8bf637e547e1edb4, 0xa21978b8fbe9942c),
    ("cifar10", "resnet101-v2", 0xa59ef87123313a2b, 0x1054eea94a794a7c),
    ("cifar10", "resnet152-v2", 0x595dc3464971fb28, 0x614ff0cbe89adff2),
    ("cifar10", "efficientnet-b0", 0x666fee40e0f2b194, 0x8f2d22b2507a2589),
    ("cifar10", "efficientnet-b1", 0x7d3c129b8d941664, 0x9a973b1aa364db04),
    ("cifar10", "efficientnet-b2", 0x8b27f5bcee314344, 0x74f6cbbf4411d083),
    ("cifar10", "efficientnet-b3", 0x3693b4beaee87aad, 0x70fe570628213555),
    ("cifar10", "efficientnet-b4", 0x4babb0af089cbb00, 0x71bd1f27d22f3e56),
    ("cifar10", "efficientnet-b5", 0x0f2cb97a3e9d0094, 0xb756f8509a8fe5b4),
    ("cifar10", "efficientnet-b6", 0x5cb8b008e0dd8c2d, 0x854d3e9e981818c0),
    ("cifar10", "efficientnet-b7", 0xb027da55e7b8bb0b, 0xbc6a7c3f2235a74f),
    ("cifar100", "raw", 0x019eae29e27927c5, 0x3f850344db0f8ed7),
    ("cifar100", "pca32", 0xcec8892378576dc4, 0x93d4ecb87bfa0208),
    ("cifar100", "pca64", 0xc231c089f1fd7988, 0x6233b0bdf43d7c9f),
    ("cifar100", "nca", 0xe83c225fd0e744ec, 0x0437439909c88b7f),
    ("cifar100", "random-proj32", 0xa93b86d2abe5463f, 0xc7a0a5c69ec98dac),
    ("cifar100", "alexnet", 0xe62d31f8afff4369, 0x097dfd6dc473941b),
    ("cifar100", "googlenet", 0xc998df5a3992f1d6, 0xb0885e088ce769b9),
    ("cifar100", "vgg16", 0x291aff17af3be3ca, 0xc68c01df4f0833eb),
    ("cifar100", "vgg19", 0x1fe3a2cd21f2e122, 0x459b924a21054caf),
    ("cifar100", "inception-v3", 0xdae4d36401c02199, 0xdb8efe431cf359e1),
    ("cifar100", "resnet50-v2", 0xf745a68cb6ceb3af, 0x1dea9256e1aae64f),
    ("cifar100", "resnet101-v2", 0x7c6657899e84bcef, 0xc078f6d315f76b45),
    ("cifar100", "resnet152-v2", 0x122420e433dc0da3, 0x24da3e2a72f1f029),
    ("cifar100", "efficientnet-b0", 0xb425d432007c6b75, 0xf2189a678e41ae45),
    ("cifar100", "efficientnet-b1", 0x8715428a62549df0, 0xc375e78ba1d1fd45),
    ("cifar100", "efficientnet-b2", 0x991cdf2e780da6fc, 0x73120ca946bd40fe),
    ("cifar100", "efficientnet-b3", 0xee3210f8dad23df1, 0x789617fe5c774c0d),
    ("cifar100", "efficientnet-b4", 0x8a1de980df6cbff4, 0x2cce872c93993993),
    ("cifar100", "efficientnet-b5", 0xbf16465c8c41fe60, 0xa072899ba53dd1a9),
    ("cifar100", "efficientnet-b6", 0x790cc58107295dbb, 0x08d94bead14c4807),
    ("cifar100", "efficientnet-b7", 0x0e4159ac863a3171, 0xccb8b3c54fbd0f4b),
    ("imdb", "raw", 0x3f8c2cdfab0071bb, 0xb103ab51d7d44f4e),
    ("imdb", "standardize", 0x61a0e945e2e6fa7a, 0x017f6385cdc79021),
    ("imdb", "pca64", 0x9b6390ec641c22a5, 0x5e951e649e1bce1d),
    ("imdb", "nnlm-en-50", 0xad429b785e229541, 0x63bc889f4ca17136),
    ("imdb", "nnlm-en-50-norm", 0x318892073614d36a, 0xbf7f95f08d0e1509),
    ("imdb", "nnlm-en-128", 0xe27d8dee5afbd949, 0x441f251d67c8a358),
    ("imdb", "nnlm-en-128-norm", 0x1531e35862aba28e, 0x9445b878c8c3754f),
    ("imdb", "elmo", 0x12a3f8ac5c93a00f, 0x7cf863456b76dbcd),
    ("imdb", "use", 0xf41fd85ae5a996bd, 0x81e52bc1131a70da),
    ("imdb", "use-large", 0x3afdd2f255d880da, 0x6cb454e5ac715b22),
    ("imdb", "bert-base-cased-pooled", 0xd8912fe277958d87, 0x42fd134d06ac22c0),
    ("imdb", "bert-base-uncased-pooled", 0xc9f3975fa986cbbe, 0xec1e8ddec0ad1cbc),
    ("imdb", "bert-base-cased", 0x4e8ab9718a115f45, 0x56fb2805f45d6665),
    ("imdb", "bert-base-uncased", 0xf7e723b01c0c0e5b, 0x6b30c42708edb598),
    ("imdb", "bert-large-cased-pooled", 0x8d6af8fcd5221765, 0x72b25f552d75335f),
    ("imdb", "bert-large-uncased-pooled", 0x99ff84f4eb93d58f, 0x917eeb51c44c8c86),
    ("imdb", "bert-large-cased", 0x7340f3250a4755ca, 0x67871b04289e1a58),
    ("imdb", "bert-large-uncased", 0x66b3961e176f20ea, 0xd92a4d2d0a538523),
    ("imdb", "xlnet", 0x3245ba4128bc0f17, 0x43fa4f65e764e5e4),
    ("imdb", "xlnet-large", 0xc7d34a92ef11a33e, 0x48e90559c307f92a),
    ("sst2", "raw", 0xdde5e9286a7ed23a, 0xe5014bc59f175e4f),
    ("sst2", "standardize", 0xddc7a3d636fff917, 0xff74165505116cc1),
    ("sst2", "pca64", 0xf82fbc36a92fcd17, 0x3a292a56a407efcc),
    ("sst2", "nnlm-en-50", 0x57937d66109b07ee, 0x035e3360dff670f4),
    ("sst2", "nnlm-en-50-norm", 0xef2582380b57fbac, 0x198e324283c0560a),
    ("sst2", "nnlm-en-128", 0x8830e090b57fd653, 0x0a92b45374a4171c),
    ("sst2", "nnlm-en-128-norm", 0x83bb5e85bd55abda, 0xfa7f27972b46f9c7),
    ("sst2", "elmo", 0xdc1e88da1c57fcbb, 0x4bf0507b4f13c7a5),
    ("sst2", "use", 0x1587756dbd44a58b, 0xcc0f8d2271d93446),
    ("sst2", "use-large", 0x0c6e6b73f3f66fff, 0x9ddc3205b47a23c6),
    ("sst2", "bert-base-cased-pooled", 0xa50b48e44697b22b, 0x4a04e84042db3621),
    ("sst2", "bert-base-uncased-pooled", 0xb91bc9bd63b27e86, 0x240a2d6484754a80),
    ("sst2", "bert-base-cased", 0x0fc732e282eccfd3, 0x7bf038dc2e2d5edc),
    ("sst2", "bert-base-uncased", 0x312ad2fdc23dee2b, 0xc3c01c85e74d6d27),
    ("sst2", "bert-large-cased-pooled", 0x6c67bb2642771bb5, 0xb96d347ff6e93ab8),
    ("sst2", "bert-large-uncased-pooled", 0x8a07cead563ab3b4, 0x5e482deff6ac6a8a),
    ("sst2", "bert-large-cased", 0xd993d6e69d2ff8d8, 0x9e6aa7eb2f8742d5),
    ("sst2", "bert-large-uncased", 0xeb2a4a7ed745e924, 0xec8e60893fe35465),
    ("sst2", "xlnet", 0x44dd65ba2fbf7c47, 0x40934dd7093a821e),
    ("sst2", "xlnet-large", 0x05ca107035f365f2, 0xd525f2c8404c743e),
    ("yelp", "raw", 0xe0d807426823375d, 0xaddfee5d849be5db),
    ("yelp", "standardize", 0x7bbc46e5d068fb93, 0x0cea589a33df76e4),
    ("yelp", "pca64", 0x0856de27fbfe2a8c, 0x1d3b600c5930aa14),
    ("yelp", "nnlm-en-50", 0x17c43a54be717530, 0xe0dcc215c7b2ad23),
    ("yelp", "nnlm-en-50-norm", 0xe460667476408fdc, 0xa95339991bcd7376),
    ("yelp", "nnlm-en-128", 0xec3ef65ca202898c, 0xcda6e742595f0a82),
    ("yelp", "nnlm-en-128-norm", 0xb01247811d46d88d, 0xa384e4e2072b0d1f),
    ("yelp", "elmo", 0x9c736ca78a018b6a, 0xccf106e0170b8cfd),
    ("yelp", "use", 0x09bf4db08d91d84c, 0x082780d68e168c08),
    ("yelp", "use-large", 0xd73b13eec669281f, 0x5a9e769782396323),
    ("yelp", "bert-base-cased-pooled", 0x185f79d48248fe90, 0x2ed86958d89828bf),
    ("yelp", "bert-base-uncased-pooled", 0x5636b4394769ea7f, 0xa0f7cd732c01b44a),
    ("yelp", "bert-base-cased", 0xcf547787a0cc87d1, 0xebb17e5b31b6919b),
    ("yelp", "bert-base-uncased", 0x0634d839bb06bd4c, 0xf0aa3e2613637258),
    ("yelp", "bert-large-cased-pooled", 0xcc826343d03e8483, 0xd5ff137e96084e55),
    ("yelp", "bert-large-uncased-pooled", 0xa44b7b2c1fb3578c, 0x0974dc6d6ef4d410),
    ("yelp", "bert-large-cased", 0xea750e6e1263d44a, 0xd113f935a042f8be),
    ("yelp", "bert-large-uncased", 0xc4d10502685e6942, 0x4f7e52507951fb25),
    ("yelp", "xlnet", 0x4dd458b86d2dff82, 0x60a2f79ab3c2e3db),
    ("yelp", "xlnet-large", 0xa0280901b9bbe71f, 0x29dbc17d5c5bed2e),
];

/// FNV-1a 64 over the shape and the little-endian bits of every entry.
fn fnv1a(m: &Matrix) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let shape = [m.rows() as u64, m.cols() as u64];
    let bytes = shape
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .chain(m.data().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn every_zoo_member_embeds_every_table_one_replica_to_the_pinned_bits() {
    let seed = 1;
    let mut actual: Vec<(&str, String, u64, u64)> = Vec::new();
    for name in ["mnist", "cifar10", "cifar100", "imdb", "sst2", "yelp"] {
        let task = load_with_noise(name, SizeScale::Tiny, &NoiseModel::Uniform(0.3), seed);
        for t in zoo_for_task(&task, seed) {
            let train = fnv1a(&t.transform(task.train.features_view()));
            let test = fnv1a(&t.transform(task.test.features_view()));
            actual.push((name, t.name().to_string(), train, test));
        }
    }
    let rendered: String = actual
        .iter()
        .map(|(name, member, train, test)| {
            format!("    ({name:?}, {member:?}, {train:#018x}, {test:#018x}),\n")
        })
        .collect();
    assert_eq!(GOLDEN.len(), actual.len(), "zoo membership moved; current values:\n{rendered}");
    for (golden, got) in GOLDEN.iter().zip(&actual) {
        assert!(
            (golden.0, golden.1, golden.2, golden.3) == (got.0, got.1.as_str(), got.2, got.3),
            "{} / {}: embedding moved from the pinned bits; current values:\n{rendered}",
            golden.0,
            golden.1
        );
    }
}
