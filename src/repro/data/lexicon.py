"""Word inventories for the synthetic e-commerce catalog.

The paper evaluates on three proprietary eBay meta-categories (CAT 1/2/3,
large/medium/small).  We substitute a deterministic synthetic lexicon with
the same structure: a *meta category* contains *leaf categories*; each leaf
has brands, multi-token product types, grouped attributes, and filler words
used to pad item titles the way real listings pad theirs ("NEW", "OEM",
"Fast Shipping").

Everything here is plain data — no randomness — so catalogs built from the
same seed are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class LeafLexicon:
    """Word pools for one leaf category.

    Attributes:
        name: Leaf category name (single token, kebab-case).
        brands: Brand names (single tokens).
        product_types: Product types; each is a tuple of tokens, e.g.
            ``("gaming", "headphones")``.
        attributes: Attribute groups, e.g. ``{"color": ("black", ...)}``.
            Attribute values may be multi-token tuples.
        compatibles: Things the product is "for" — platforms, appliances,
            audiences.  Used both in titles ("... for xbox") and queries.
    """

    name: str
    brands: Tuple[str, ...]
    product_types: Tuple[Tuple[str, ...], ...]
    attributes: Dict[str, Tuple[Tuple[str, ...], ...]]
    compatibles: Tuple[str, ...] = ()


@dataclass(frozen=True)
class MetaLexicon:
    """Word pools for one meta category (a set of leaves + shared filler)."""

    name: str
    leaves: Tuple[LeafLexicon, ...]
    filler_words: Tuple[str, ...] = field(
        default=(
            "new", "genuine", "oem", "sealed", "bundle", "lot",
            "sale", "free", "shipping", "usa", "fast", "authentic",
            "original", "rare", "mint", "open", "box",
        )
    )

    def leaf(self, name: str) -> LeafLexicon:
        """Return the leaf lexicon with the given name.

        Raises:
            KeyError: If no leaf with that name exists.
        """
        for leaf in self.leaves:
            if leaf.name == name:
                return leaf
        raise KeyError(f"no leaf named {name!r} in meta {self.name!r}")


def _attrs(**groups: Tuple[str, ...]) -> Dict[str, Tuple[Tuple[str, ...], ...]]:
    """Normalise attribute groups: single-token strings become 1-tuples."""
    out: Dict[str, Tuple[Tuple[str, ...], ...]] = {}
    for group, values in groups.items():
        out[group] = tuple(
            v if isinstance(v, tuple) else (v,) for v in values
        )
    return out


_COLORS = ("black", "white", "silver", "blue", "red", "green", "gold", "gray")
_CONDITIONS = ("new", "used", "refurbished", "vintage")

_ELECTRONICS_LEAVES = (
    LeafLexicon(
        name="headphones",
        brands=("audeze", "sonorix", "bassforge", "klaro", "wavecrest",
                "echopod", "tunefjord", "auralis", "dbx", "hymn"),
        product_types=(
            ("headphones",), ("gaming", "headphones"), ("wireless", "earbuds"),
            ("headset",), ("earphones",), ("studio", "headphones"),
            ("noise", "cancelling", "headphones"),
        ),
        attributes=_attrs(
            color=_COLORS[:6],
            connectivity=("bluetooth", "wired", "wireless", "usb"),
            feature=("microphone", ("noise", "cancelling"), "foldable",
                     ("over", "ear"), ("in", "ear")),
        ),
        compatibles=("xbox", "playstation", "pc", "iphone", "android", "switch"),
    ),
    LeafLexicon(
        name="laptops",
        brands=("zenbooklite", "corevale", "nimbus", "voltedge", "graphyne",
                "lumora", "pinnacle", "stratos", "orbitek"),
        product_types=(
            ("laptop",), ("gaming", "laptop"), ("ultrabook",),
            ("notebook",), ("chromebook",), ("workstation", "laptop"),
        ),
        attributes=_attrs(
            screen=("13", "14", "15", "17"),
            ram=(("8gb", "ram"), ("16gb", "ram"), ("32gb", "ram")),
            storage=(("256gb", "ssd"), ("512gb", "ssd"), ("1tb", "ssd"),
                     ("1tb", "hdd")),
            cpu=("i5", "i7", "i9", "ryzen"),
        ),
        compatibles=("students", "business", "gaming", "video", "editing"),
    ),
    LeafLexicon(
        name="phones",
        brands=("calypso", "nexar", "pebblio", "vertex", "monsoon",
                "kitefone", "halcyon", "zephyr"),
        product_types=(
            ("smartphone",), ("phone",), ("cell", "phone"),
            ("unlocked", "phone"), ("flip", "phone"),
        ),
        attributes=_attrs(
            storage=("64gb", "128gb", "256gb", "512gb"),
            color=_COLORS[:5],
            network=("unlocked", "5g", "4g", "dual", "sim"),
        ),
        compatibles=("verizon", "att", "tmobile", "prepaid"),
    ),
    LeafLexicon(
        name="cameras",
        brands=("optiko", "lumenara", "fovea", "silverlens", "panoptia",
                "irisview", "clarita"),
        product_types=(
            ("camera",), ("digital", "camera"), ("mirrorless", "camera"),
            ("dslr", "camera"), ("action", "camera"), ("instant", "camera"),
        ),
        attributes=_attrs(
            resolution=("12mp", "20mp", "24mp", "45mp"),
            feature=(("4k", "video"), "wifi", ("image", "stabilization"),
                     "waterproof"),
            kit=(("with", "lens"), ("body", "only"), ("bundle", "kit")),
        ),
        compatibles=("vlogging", "travel", "beginners", "underwater"),
    ),
    LeafLexicon(
        name="tablets",
        brands=("slatea", "paperon", "glyphtab", "nimbus", "vertex",
                "orbitek", "lumora"),
        product_types=(
            ("tablet",), ("android", "tablet"), ("kids", "tablet"),
            ("drawing", "tablet"), ("e", "reader"),
        ),
        attributes=_attrs(
            screen=("8", "10", "11", "13"),
            storage=("32gb", "64gb", "128gb", "256gb"),
            connectivity=("wifi", ("wifi", "cellular"), "lte"),
        ),
        compatibles=("kids", "students", "artists", "reading"),
    ),
    LeafLexicon(
        name="monitors",
        brands=("viewforge", "pixelon", "claritymax", "arcscreen", "voltedge",
                "graphyne", "stratos"),
        product_types=(
            ("monitor",), ("gaming", "monitor"), ("curved", "monitor"),
            ("ultrawide", "monitor"), ("portable", "monitor"),
        ),
        attributes=_attrs(
            size=("24", "27", "32", "34"),
            refresh=(("144hz",), ("165hz",), ("240hz",), ("60hz",)),
            resolution=("1080p", "1440p", "4k"),
            panel=("ips", "va", "oled"),
        ),
        compatibles=("gaming", "office", "mac", "laptop"),
    ),
    LeafLexicon(
        name="keyboards",
        brands=("keyvolt", "tactilus", "clackworks", "ironkeys", "dbx",
                "bassforge", "hymn"),
        product_types=(
            ("keyboard",), ("mechanical", "keyboard"), ("gaming", "keyboard"),
            ("wireless", "keyboard"), ("ergonomic", "keyboard"),
        ),
        attributes=_attrs(
            switch=(("red", "switches"), ("blue", "switches"),
                    ("brown", "switches"), ("low", "profile")),
            layout=(("60", "percent"), "tkl", ("full", "size"), "compact"),
            feature=("rgb", "backlit", ("hot", "swappable"), "programmable"),
        ),
        compatibles=("mac", "pc", "gaming", "typing"),
    ),
    LeafLexicon(
        name="speakers",
        brands=("sonorix", "wavecrest", "echopod", "basslane", "auralis",
                "tunefjord", "klaro"),
        product_types=(
            ("speaker",), ("bluetooth", "speaker"), ("portable", "speaker"),
            ("smart", "speaker"), ("bookshelf", "speakers"), ("soundbar",),
        ),
        attributes=_attrs(
            color=_COLORS[:5],
            power=("10w", "20w", "40w", "100w"),
            feature=("waterproof", ("party", "lights"), "stereo",
                     ("deep", "bass")),
        ),
        compatibles=("home", "outdoor", "party", "tv"),
    ),
    LeafLexicon(
        name="drones",
        brands=("aeropix", "skyforge", "hoverline", "glidea", "panoptia",
                "fovea"),
        product_types=(
            ("drone",), ("camera", "drone"), ("mini", "drone"),
            ("fpv", "drone"), ("racing", "drone"),
        ),
        attributes=_attrs(
            camera=(("4k", "camera"), ("1080p", "camera"), ("no", "camera")),
            feature=("foldable", "gps", ("obstacle", "avoidance"),
                     ("long", "range")),
            skill=(("for", "beginners"), "professional", "hobby"),
        ),
        compatibles=("beginners", "kids", "adults", "photography"),
    ),
    LeafLexicon(
        name="smartwatches",
        brands=("chronix", "pulsewake", "tempora", "halcyon", "zephyr",
                "vertex"),
        product_types=(
            ("smartwatch",), ("fitness", "tracker"), ("smart", "watch"),
            ("gps", "watch"), ("kids", "smartwatch"),
        ),
        attributes=_attrs(
            color=_COLORS[:5],
            size=("40mm", "42mm", "44mm", "46mm"),
            feature=(("heart", "rate"), "gps", "waterproof",
                     ("sleep", "tracking"), "amoled"),
        ),
        compatibles=("iphone", "android", "running", "swimming"),
    ),
    LeafLexicon(
        name="routers",
        brands=("netspire", "linkforge", "meshona", "signalux", "orbitek",
                "stratos"),
        product_types=(
            ("router",), ("wifi", "router"), ("mesh", "router"),
            ("gaming", "router"), ("travel", "router"),
        ),
        attributes=_attrs(
            standard=(("wifi", "6"), ("wifi", "6e"), ("wifi", "5"), "ax3000"),
            coverage=(("whole", "home"), ("long", "range"), "compact"),
            ports=(("4", "ports"), ("8", "ports"), ("2.5g", "port")),
        ),
        compatibles=("gaming", "streaming", "home", "office"),
    ),
    LeafLexicon(
        name="printers",
        brands=("inkvale", "printora", "laserline", "paperon", "clarita",
                "pixelon"),
        product_types=(
            ("printer",), ("laser", "printer"), ("inkjet", "printer"),
            ("photo", "printer"), ("label", "printer"),
            ("all", "in", "one", "printer"),
        ),
        attributes=_attrs(
            color=(("color",), ("monochrome",), ("black", "white")),
            feature=("wireless", "duplex", "airprint", ("with", "scanner")),
            speed=(("20ppm",), ("30ppm",), ("40ppm",)),
        ),
        compatibles=("home", "office", "school", "small", "business"),
    ),
)

_HOME_GARDEN_LEAVES = (
    LeafLexicon(
        name="cookware",
        brands=("ferrova", "copperhollow", "simmerline", "castiria",
                "panmark", "culina"),
        product_types=(
            ("cookware", "set"), ("frying", "pan"), ("dutch", "oven"),
            ("skillet",), ("saucepan",), ("stock", "pot"),
        ),
        attributes=_attrs(
            material=(("cast", "iron"), ("stainless", "steel"), "nonstick",
                      "ceramic", "copper"),
            size=(("10", "inch"), ("12", "inch"), ("5", "quart"),
                  ("8", "quart")),
            feature=(("oven", "safe"), ("dishwasher", "safe"),
                     ("induction", "compatible")),
        ),
        compatibles=("induction", "gas", "electric", "camping"),
    ),
    LeafLexicon(
        name="bedding",
        brands=("cloudnest", "dreamweft", "lunaloft", "quilted", "sereno"),
        product_types=(
            ("sheet", "set"), ("comforter",), ("duvet", "cover"),
            ("pillow",), ("mattress", "topper"), ("weighted", "blanket"),
        ),
        attributes=_attrs(
            size=("twin", "full", "queen", "king"),
            material=("cotton", "microfiber", "bamboo", "linen", "down"),
            color=_COLORS[:6],
        ),
        compatibles=("summer", "winter", "kids", "guest", "room"),
    ),
    LeafLexicon(
        name="lighting",
        brands=("glowette", "lumenhaus", "brighton", "solstice", "auric"),
        product_types=(
            ("floor", "lamp"), ("table", "lamp"), ("ceiling", "light"),
            ("led", "strip", "lights"), ("pendant", "light"),
            ("string", "lights"),
        ),
        attributes=_attrs(
            style=("modern", "industrial", "farmhouse", "vintage"),
            feature=("dimmable", ("remote", "control"), ("smart", "bulb"),
                     ("color", "changing")),
            power=(("battery", "operated"), ("plug", "in"), "solar"),
        ),
        compatibles=("bedroom", "living", "room", "outdoor", "patio"),
    ),
    LeafLexicon(
        name="garden-tools",
        brands=("terraforge", "bloomline", "verdana", "rootwise", "soleia"),
        product_types=(
            ("pruning", "shears"), ("garden", "hose"), ("leaf", "blower"),
            ("hedge", "trimmer"), ("lawn", "mower"), ("tool", "set"),
        ),
        attributes=_attrs(
            power=("cordless", "electric", "gas", "manual"),
            feature=(("heavy", "duty"), "lightweight", "telescoping",
                     ("quick", "connect")),
            size=(("25", "ft"), ("50", "ft"), ("100", "ft")),
        ),
        compatibles=("garden", "yard", "lawn", "landscaping"),
    ),
    LeafLexicon(
        name="furniture",
        brands=("oakhaven", "formline", "nordvik", "casaluce", "strutto"),
        product_types=(
            ("coffee", "table"), ("bookshelf",), ("office", "chair"),
            ("tv", "stand"), ("dining", "table"), ("accent", "chair"),
        ),
        attributes=_attrs(
            material=("wood", "metal", "glass", ("solid", "oak"), "velvet"),
            style=("modern", "rustic", ("mid", "century"), "industrial"),
            color=("black", "white", "walnut", "oak", "espresso"),
        ),
        compatibles=("living", "room", "office", "bedroom", "small", "spaces"),
    ),
    LeafLexicon(
        name="storage",
        brands=("tidyforge", "stacksmith", "binhaven", "ordena"),
        product_types=(
            ("storage", "bins"), ("shelving", "unit"), ("closet", "organizer"),
            ("storage", "cabinet"), ("shoe", "rack"), ("garage", "shelves"),
        ),
        attributes=_attrs(
            material=("plastic", "fabric", "metal", "wire", "bamboo"),
            size=(("small",), ("large",), ("66", "quart"), ("5", "tier")),
            feature=("stackable", ("with", "lids"), "collapsible",
                     ("heavy", "duty")),
        ),
        compatibles=("garage", "closet", "pantry", "kids", "toys"),
    ),
    LeafLexicon(
        name="decor",
        brands=("murale", "artisca", "velvetine", "gildform"),
        product_types=(
            ("wall", "art"), ("throw", "pillow"), ("area", "rug"),
            ("wall", "mirror"), ("picture", "frame"), ("vase",),
        ),
        attributes=_attrs(
            style=("boho", "modern", "farmhouse", "abstract", "vintage"),
            size=(("5x7",), ("8x10",), ("large",), ("set", "of", "2")),
            color=("gold", "black", "white", "neutral", "multicolor"),
        ),
        compatibles=("living", "room", "bedroom", "bathroom", "entryway"),
    ),
    LeafLexicon(
        name="grills",
        brands=("emberline", "charforge", "flamebrook", "searmaster"),
        product_types=(
            ("gas", "grill"), ("charcoal", "grill"), ("pellet", "grill"),
            ("portable", "grill"), ("smoker",), ("griddle",),
        ),
        attributes=_attrs(
            burners=(("2", "burner"), ("3", "burner"), ("4", "burner")),
            feature=(("side", "table"), ("temperature", "gauge"),
                     ("with", "cover"), "foldable"),
            fuel=("propane", "charcoal", "pellet", "electric"),
        ),
        compatibles=("camping", "tailgating", "backyard", "patio"),
    ),
)

_COLLECTIBLES_LEAVES = (
    LeafLexicon(
        name="trading-cards",
        brands=("cardforge", "mythic", "apexdeck", "relicary"),
        product_types=(
            ("trading", "card"), ("booster", "box"), ("card", "lot"),
            ("graded", "card"), ("booster", "pack"),
        ),
        attributes=_attrs(
            grade=(("psa", "10"), ("psa", "9"), "ungraded", ("bgs", "9.5")),
            rarity=("holo", ("first", "edition"), "rare", "promo"),
            era=("vintage", "modern", ("base", "set")),
        ),
        compatibles=("collectors", "players", "investment"),
    ),
    LeafLexicon(
        name="coins",
        brands=("numisma", "aurelius", "mintmark"),
        product_types=(
            ("silver", "dollar"), ("gold", "coin"), ("coin", "lot"),
            ("proof", "set"), ("commemorative", "coin"),
        ),
        attributes=_attrs(
            grade=("ms65", "ms70", "au", "circulated", "uncirculated"),
            metal=("silver", "gold", "copper", ("90", "silver")),
            era=("morgan", "peace", ("pre", "1933"), "modern"),
        ),
        compatibles=("collectors", "investment", "gift"),
    ),
    LeafLexicon(
        name="stamps",
        brands=("philatel", "postmark", "perfora"),
        product_types=(
            ("stamp", "collection"), ("stamp", "lot"), ("first", "day", "cover"),
            ("mint", "stamps"), ("stamp", "album"),
        ),
        attributes=_attrs(
            condition=("mint", "used", "hinged", ("never", "hinged")),
            origin=("us", "worldwide", "british", "german"),
            era=("19th", "century", "classic", "modern"),
        ),
        compatibles=("collectors", "beginners"),
    ),
    LeafLexicon(
        name="vintage-toys",
        brands=("tinwhistle", "joyforge", "retrona", "playden"),
        product_types=(
            ("action", "figure"), ("tin", "toy"), ("model", "train"),
            ("die", "cast", "car"), ("vintage", "doll"), ("board", "game"),
        ),
        attributes=_attrs(
            condition=(("in", "box"), "loose", "complete", "sealed"),
            era=("1960s", "1970s", "1980s", "1990s"),
            scale=(("1:64",), ("1:18",), ("ho", "scale")),
        ),
        compatibles=("collectors", "display", "restoration"),
    ),
    LeafLexicon(
        name="comics",
        brands=("inkpanel", "quadrant", "vellum"),
        product_types=(
            ("comic", "book"), ("comic", "lot"), ("graphic", "novel"),
            ("graded", "comic"), ("key", "issue"),
        ),
        attributes=_attrs(
            grade=(("cgc", "9.8"), ("cgc", "9.2"), "raw", "vf", "nm"),
            era=(("golden", "age"), ("silver", "age"), ("bronze", "age"),
                 "modern"),
            feature=(("first", "appearance"), "variant", ("signed",)),
        ),
        compatibles=("collectors", "readers", "investment"),
    ),
)


#: The three synthetic meta categories, mirroring the paper's CAT 1/2/3
#: large / medium / small split (Table II).
ELECTRONICS = MetaLexicon(name="CAT_1", leaves=_ELECTRONICS_LEAVES)
HOME_GARDEN = MetaLexicon(name="CAT_2", leaves=_HOME_GARDEN_LEAVES)
COLLECTIBLES = MetaLexicon(name="CAT_3", leaves=_COLLECTIBLES_LEAVES)

META_LEXICONS: Dict[str, MetaLexicon] = {
    lex.name: lex for lex in (ELECTRONICS, HOME_GARDEN, COLLECTIBLES)
}
