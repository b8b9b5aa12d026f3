#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "crypto/gcm.hh"
#include "crypto/iv.hh"
#include "tests/crypto/hex_util.hh"

using namespace pipellm::crypto;
using hexutil::fromHex;
using hexutil::toHex;

namespace {

struct GcmVector
{
    const char *name;
    const char *key;
    const char *iv;
    const char *aad;
    const char *pt;
    const char *ct;
    const char *tag;
};

// Print a vector by name: gtest's default byte dump would put pointer
// values, which change from run to run, into each test's name.
void
PrintTo(const GcmVector &v, std::ostream *os)
{
    *os << v.name;
}

// McGrew & Viega, "The Galois/Counter Mode of Operation", appendix B
// (the canonical AES-GCM test cases, 96-bit IVs only).
const GcmVector kVectors[] = {
    {"aes128_case1",
     "00000000000000000000000000000000",
     "000000000000000000000000", "", "", "",
     "58e2fccefa7e3061367f1d57a4e7455a"},
    {"aes128_case2",
     "00000000000000000000000000000000",
     "000000000000000000000000", "",
     "00000000000000000000000000000000",
     "0388dace60b6a392f328c2b971b2fe78",
     "ab6e47d42cec13bdf53a67b21257bddf"},
    {"aes128_case3",
     "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", "",
     "d9313225f88406e5a55909c5aff5269a"
     "86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525"
     "b16aedf5aa0de657ba637b391aafd255",
     "42831ec2217774244b7221b784d0d49c"
     "e3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa05"
     "1ba30b396a0aac973d58e091473f5985",
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    {"aes128_case4",
     "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "d9313225f88406e5a55909c5aff5269a"
     "86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525"
     "b16aedf5aa0de657ba637b39",
     "42831ec2217774244b7221b784d0d49c"
     "e3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa05"
     "1ba30b396a0aac973d58e091",
     "5bc94fbc3221a5db94fae95ae7121a47"},
    {"aes256_case13",
     "00000000000000000000000000000000"
     "00000000000000000000000000000000",
     "000000000000000000000000", "", "", "",
     "530f8afbc74536b9a963b4f1c4cb738b"},
    {"aes256_case14",
     "00000000000000000000000000000000"
     "00000000000000000000000000000000",
     "000000000000000000000000", "",
     "00000000000000000000000000000000",
     "cea7403d4d606b6e074ec5d3baf39d18",
     "d0d1c8a799996bf0265b98b5d48ab919"},
    {"aes256_case15",
     "feffe9928665731c6d6a8f9467308308"
     "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", "",
     "d9313225f88406e5a55909c5aff5269a"
     "86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525"
     "b16aedf5aa0de657ba637b391aafd255",
     "522dc1f099567d07f47f37a32a84427d"
     "643a8cdcbfe5c0c97598a2bd2555d1aa"
     "8cb08e48590dbb3da7b08b1056828838"
     "c5f61e6393ba7a0abcc9f662898015ad",
     "b094dac5d93471bdec1a502270e3cc6c"},
    {"aes256_case16",
     "feffe9928665731c6d6a8f9467308308"
     "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "d9313225f88406e5a55909c5aff5269a"
     "86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525"
     "b16aedf5aa0de657ba637b39",
     "522dc1f099567d07f47f37a32a84427d"
     "643a8cdcbfe5c0c97598a2bd2555d1aa"
     "8cb08e48590dbb3da7b08b1056828838"
     "c5f61e6393ba7a0abcc9f662",
     "76fc6ece0f4e1768cddf8853bb2d551b"},
};

class GcmVectors : public ::testing::TestWithParam<GcmVector>
{
};

} // namespace

TEST_P(GcmVectors, SealMatchesVector)
{
    const auto &v = GetParam();
    auto key = fromHex(v.key);
    auto iv_bytes = fromHex(v.iv);
    auto aad = fromHex(v.aad);
    auto pt = fromHex(v.pt);

    AesGcm gcm(key.data(), key.size());
    GcmIv iv{};
    std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());

    std::vector<std::uint8_t> ct(pt.size());
    GcmTag tag;
    gcm.seal(iv, aad.data(), aad.size(), pt.data(), pt.size(),
             ct.data(), tag);
    EXPECT_EQ(toHex(ct), v.ct);
    EXPECT_EQ(toHex(tag.data(), tag.size()), v.tag);
}

TEST_P(GcmVectors, OpenRoundTrips)
{
    const auto &v = GetParam();
    auto key = fromHex(v.key);
    auto iv_bytes = fromHex(v.iv);
    auto aad = fromHex(v.aad);
    auto ct = fromHex(v.ct);
    auto tag_bytes = fromHex(v.tag);

    AesGcm gcm(key.data(), key.size());
    GcmIv iv{};
    std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());
    GcmTag tag;
    std::copy(tag_bytes.begin(), tag_bytes.end(), tag.begin());

    std::vector<std::uint8_t> pt(ct.size());
    ASSERT_TRUE(gcm.open(iv, aad.data(), aad.size(), ct.data(),
                         ct.size(), tag, pt.data()));
    EXPECT_EQ(toHex(pt), v.pt);
}

TEST_P(GcmVectors, TamperedTagRejected)
{
    const auto &v = GetParam();
    auto key = fromHex(v.key);
    auto iv_bytes = fromHex(v.iv);
    auto aad = fromHex(v.aad);
    auto ct = fromHex(v.ct);
    auto tag_bytes = fromHex(v.tag);

    AesGcm gcm(key.data(), key.size());
    GcmIv iv{};
    std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());
    GcmTag tag;
    std::copy(tag_bytes.begin(), tag_bytes.end(), tag.begin());
    tag[0] ^= 0x01;

    std::vector<std::uint8_t> pt(ct.size());
    EXPECT_FALSE(gcm.open(iv, aad.data(), aad.size(), ct.data(),
                          ct.size(), tag, pt.data()));
}

INSTANTIATE_TEST_SUITE_P(
    NistVectors, GcmVectors, ::testing::ValuesIn(kVectors),
    [](const ::testing::TestParamInfo<GcmVector> &info) {
        return info.param.name;
    });

TEST(Gcm, WrongIvFailsAuthentication)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    AesGcm gcm(key.data(), key.size());
    GcmIv iv{};
    std::vector<std::uint8_t> pt(48, 0xab);
    GcmTag tag;
    auto ct = gcm.seal(iv, pt, tag);

    GcmIv wrong = iv;
    wrong[11] = 1;
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(gcm.open(wrong, ct, tag, out));
    EXPECT_TRUE(gcm.open(iv, ct, tag, out));
    EXPECT_EQ(out, pt);
}

TEST(Gcm, TamperedCiphertextRejected)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    AesGcm gcm(key.data(), key.size());
    GcmIv iv{};
    iv[0] = 9;
    std::vector<std::uint8_t> pt(100, 0x5c);
    GcmTag tag;
    auto ct = gcm.seal(iv, pt, tag);
    ct[50] ^= 0x80;
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(gcm.open(iv, ct, tag, out));
}

TEST(Gcm, NonBlockAlignedLengths)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308"
                       "feffe9928665731c6d6a8f9467308308");
    AesGcm gcm(key.data(), key.size());
    for (std::size_t len : {1u, 15u, 16u, 17u, 31u, 33u, 100u, 4097u}) {
        GcmIv iv{};
        iv[11] = std::uint8_t(len);
        std::vector<std::uint8_t> pt(len);
        for (std::size_t i = 0; i < len; ++i)
            pt[i] = std::uint8_t(i * 7);
        GcmTag tag;
        auto ct = gcm.seal(iv, pt, tag);
        ASSERT_EQ(ct.size(), len);
        std::vector<std::uint8_t> out;
        ASSERT_TRUE(gcm.open(iv, ct, tag, out)) << "len=" << len;
        EXPECT_EQ(out, pt);
    }
}

// Randomized round-trip property sweep: arbitrary keys, IVs, AAD and
// message lengths must seal/open correctly, and any single-bit
// corruption of ciphertext, tag, IV, or AAD must be rejected.
class GcmRandomRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(GcmRandomRoundTrip, SealOpenAndCorruptionProperty)
{
    std::uint64_t seed = 0xfeed0000 + GetParam();
    auto draw = [&]() {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        return seed >> 16;
    };
    std::size_t key_len = (draw() % 2) ? 16 : 32;
    std::vector<std::uint8_t> key(key_len);
    for (auto &b : key)
        b = std::uint8_t(draw());
    AesGcm gcm(key.data(), key.size());

    GcmIv iv;
    for (auto &b : iv)
        b = std::uint8_t(draw());
    std::vector<std::uint8_t> aad(draw() % 48);
    for (auto &b : aad)
        b = std::uint8_t(draw());
    std::vector<std::uint8_t> pt(1 + draw() % 2048);
    for (auto &b : pt)
        b = std::uint8_t(draw());

    std::vector<std::uint8_t> ct(pt.size());
    GcmTag tag;
    gcm.seal(iv, aad.data(), aad.size(), pt.data(), pt.size(),
             ct.data(), tag);

    std::vector<std::uint8_t> out(pt.size());
    ASSERT_TRUE(gcm.open(iv, aad.data(), aad.size(), ct.data(),
                         ct.size(), tag, out.data()));
    EXPECT_EQ(out, pt);

    // Single-bit corruption in each component must be detected.
    {
        auto bad = ct;
        bad[draw() % bad.size()] ^= std::uint8_t(1u << (draw() % 8));
        EXPECT_FALSE(gcm.open(iv, aad.data(), aad.size(), bad.data(),
                              bad.size(), tag, out.data()));
    }
    {
        auto bad = tag;
        bad[draw() % bad.size()] ^= std::uint8_t(1u << (draw() % 8));
        EXPECT_FALSE(gcm.open(iv, aad.data(), aad.size(), ct.data(),
                              ct.size(), bad, out.data()));
    }
    {
        auto bad = iv;
        bad[draw() % bad.size()] ^= std::uint8_t(1u << (draw() % 8));
        EXPECT_FALSE(gcm.open(bad, aad.data(), aad.size(), ct.data(),
                              ct.size(), tag, out.data()));
    }
    if (!aad.empty()) {
        auto bad = aad;
        bad[draw() % bad.size()] ^= std::uint8_t(1u << (draw() % 8));
        EXPECT_FALSE(gcm.open(iv, bad.data(), bad.size(), ct.data(),
                              ct.size(), tag, out.data()));
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GcmRandomRoundTrip,
                         ::testing::Range(0, 24));

TEST(Gcm, DistinctIvsGiveUnrelatedKeystreams)
{
    // Same plaintext under consecutive counter IVs must not produce
    // related ciphertexts (spot-check: bytewise XOR is not constant).
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> pt(64, 0x00);
    GcmTag t1, t2;
    auto iv1 = pipellm::crypto::makeIv(
        pipellm::crypto::Direction::HostToDevice, 1);
    auto iv2 = pipellm::crypto::makeIv(
        pipellm::crypto::Direction::HostToDevice, 2);
    std::vector<std::uint8_t> c1(64), c2(64);
    gcm.seal(iv1, nullptr, 0, pt.data(), 64, c1.data(), t1);
    gcm.seal(iv2, nullptr, 0, pt.data(), 64, c2.data(), t2);
    EXPECT_NE(c1, c2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += c1[i] == c2[i];
    EXPECT_LT(equal, 16);
}
