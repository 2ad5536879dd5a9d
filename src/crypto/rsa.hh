/**
 * @file
 * RSA public-key cryptosystem over the from-scratch bignum library.
 *
 * The FLock module's build-in device key pair, per-(user, server)
 * binding key pairs and the Web Server / CA key pairs are all RSA.
 * Signing is RSASSA with SHA-256 and PKCS#1-v1.5-style padding;
 * encryption is RSAES with PKCS#1-v1.5-style random padding. These
 * are simulation-grade implementations (not constant-time, no OAEP).
 */

#ifndef TRUST_CRYPTO_RSA_HH
#define TRUST_CRYPTO_RSA_HH

#include <optional>

#include "core/bytes.hh"
#include "crypto/bignum.hh"
#include "crypto/csprng.hh"

namespace trust::crypto {

/** RSA public key (n, e). */
struct RsaPublicKey
{
    Bignum n;
    Bignum e;

    /** Modulus size in bytes (ciphertext/signature length). */
    std::size_t modulusBytes() const { return (n.bitLength() + 7) / 8; }

    /** Canonical serialization (length-prefixed n, e). */
    core::Bytes serialize() const;

    /** Parse a serialized key; nullopt on malformed input. */
    static std::optional<RsaPublicKey> deserialize(const core::Bytes &data);

    /** SHA-256 fingerprint of the serialized key (key identity). */
    core::Bytes fingerprint() const;

    bool operator==(const RsaPublicKey &o) const
    {
        return n == o.n && e == o.e;
    }
};

/** RSA private key (with CRT parameters for fast decryption). */
struct RsaPrivateKey
{
    Bignum n;
    Bignum e;
    Bignum d;    // trustlint: secret
    Bignum p;    // trustlint: secret
    Bignum q;    // trustlint: secret
    Bignum dP;   // trustlint: secret -- d mod (p-1)
    Bignum dQ;   // trustlint: secret -- d mod (q-1)
    Bignum qInv; // trustlint: secret -- q^-1 mod p

    std::size_t modulusBytes() const { return (n.bitLength() + 7) / 8; }

    /** The matching public key. */
    RsaPublicKey publicKey() const { return {n, e}; }

    /** Private-key exponentiation (CRT). */
    Bignum apply(const Bignum &m) const;

    /** Canonical serialization (identity-transfer bundles). */
    core::Bytes serialize() const;

    /** Parse a serialized key; nullopt on malformed input. */
    static std::optional<RsaPrivateKey>
    deserialize(const core::Bytes &data);
};

/** An RSA key pair. */
struct RsaKeyPair
{
    RsaPublicKey pub;
    RsaPrivateKey priv;
};

/**
 * Generate an RSA key pair with a modulus of @p modulus_bits bits
 * (e = 65537). The simulation configs (EcosystemConfig, FleetConfig,
 * FlockConfig) all default to 512 bits for speed; README's caveat on
 * `rsaBits` says how to ask for realistic sizes. Fatal if
 * modulus_bits < 128.
 */
RsaKeyPair rsaGenerate(std::size_t modulus_bits, Csprng &rng);

/**
 * Sign message bytes: SHA-256 hash, PKCS#1-v1.5-style pad, private
 * exponentiation. Returns a modulus-sized signature.
 */
core::Bytes rsaSign(const RsaPrivateKey &key, const core::Bytes &message);

/** Verify an RSA signature over @p message. */
bool rsaVerify(const RsaPublicKey &key, const core::Bytes &message,
               const core::Bytes &signature);

/**
 * Encrypt a short message (at most modulusBytes-11) with random
 * PKCS#1-v1.5-style padding. Fatal if the message is too long.
 */
core::Bytes rsaEncrypt(const RsaPublicKey &key, const core::Bytes &message,
                       Csprng &rng);

/** Decrypt; nullopt if the padding is invalid. */
std::optional<core::Bytes> rsaDecrypt(const RsaPrivateKey &key,
                                      const core::Bytes &ciphertext);

} // namespace trust::crypto

#endif // TRUST_CRYPTO_RSA_HH
